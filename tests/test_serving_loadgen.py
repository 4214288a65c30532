"""Tests for the fleet-scale load generator (``python -m repro.serving.loadgen``)."""

from __future__ import annotations

import argparse
import json
import time

import numpy as np
import pytest

from repro.core import EbbiotConfig, EbbiotPipeline
from repro.events.stream import EventStream
from repro.events.types import make_packet
from repro.serving.hub import HubConfig, TrackingHub
from repro.serving.loadgen import (
    HUB_KINDS,
    build_parser,
    build_workload,
    check_slos,
    load_recordings,
    main,
    make_hub,
    run_load,
    split_batches,
)
from test_serving_hub import _moving_block_stream


def _packet(num_events: int, t_end_us: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return make_packet(
        rng.integers(0, 240, num_events),
        rng.integers(0, 180, num_events),
        np.sort(rng.integers(0, t_end_us, num_events)),
        rng.choice([-1, 1], num_events),
    )


class TestSplitBatches:
    def test_spans_and_order_preserved(self):
        events = _packet(500, t_end_us=100_000)
        batches = split_batches(events, batch_us=10_000)
        assert sum(len(batch) for _, batch in batches) == len(events)
        rejoined = np.concatenate([batch for _, batch in batches])
        assert np.array_equal(rejoined, events)
        for t_start_us, batch in batches:
            assert int(batch["t"][0]) >= t_start_us
            assert int(batch["t"][-1]) < t_start_us + 10_000

    def test_empty_input(self):
        assert split_batches(_packet(0, 1), batch_us=1_000) == []

    def test_sparse_spans_are_skipped(self):
        events = make_packet([1, 2], [1, 2], [0, 90_000], [1, 1])
        batches = split_batches(events, batch_us=1_000)
        assert len(batches) == 2  # no empty batches for the silent gap


def _synthetic_workload(sensors: int, scenes: int, duration_s: float, batch_us: int):
    recordings = load_recordings(None, scenes, duration_s=duration_s)
    return build_workload(recordings, sensors, batch_us)


def _shifted(stream: EventStream, offset_us: int) -> EventStream:
    events = stream.events.copy()
    events["t"] += offset_us
    return EventStream(events, stream.width, stream.height)


class TestBuildWorkload:
    def test_scenes_cycle_across_sensors(self):
        workload = _synthetic_workload(5, scenes=2, duration_s=0.3, batch_us=5_000)
        assert len(workload) == 5
        names = [sensor_id for sensor_id, _ in workload]
        assert len(set(names)) == 5  # unique sensor ids
        # Sensors 0 and 2 replay the same scene, split only once.
        assert names[0].split("#")[0] == names[2].split("#")[0]
        assert workload[0][1] is workload[2][1]
        assert workload[0][1] is not workload[1][1]

    def test_missing_dataset_raises(self, tmp_path):
        with pytest.raises((FileNotFoundError, ValueError)):
            load_recordings(str(tmp_path / "nope"), 4)

    def test_dataset_source_loads_the_first_entries(self, tmp_path):
        from repro.datasets.recorded import export_fleet
        from repro.runtime.scenes import build_scene_recordings

        fleet = build_scene_recordings(3, duration_s=0.3)
        manifest = export_fleet(fleet, tmp_path / "ds", name="ds")
        loaded = load_recordings(str(manifest.root), 2)
        assert [name for name, _ in loaded] == [r.name for r in fleet[:2]]
        assert all(
            np.array_equal(stream.events, recording.stream.events)
            for (_, stream), recording in zip(loaded, fleet)
        )


class TestRunLoad:
    @pytest.mark.parametrize("kind", HUB_KINDS)
    def test_report_shape_and_drop_invariant(self, kind):
        workload = _synthetic_workload(3, scenes=2, duration_s=0.3, batch_us=5_000)
        config = HubConfig(num_workers=2)
        with make_hub(kind, config) as hub:
            report = run_load(hub, workload)
        assert report["num_sensors"] == 3
        assert report["drop_invariant"]["ok"] is True
        assert report["drop_invariant"]["refused"] == 0
        assert report["aggregate"]["frames_out"] > 0
        assert report["aggregate"]["frames_per_s"] > 0
        assert report["aggregate"]["latency_ms"]["count"] > 0
        assert report["aggregate"]["latency_ms"]["p99_ms"] >= (
            report["aggregate"]["latency_ms"]["p50_ms"]
        )
        assert len(report["shards"]) == 2
        assert sorted(report["summaries"]) == sorted(sid for sid, _ in workload)
        assert sum(s["num_frames"] for s in report["summaries"].values()) == (
            report["aggregate"]["frames_out"]
        )

    def test_drop_policy_report_counts_shed_batches(self):
        workload = _synthetic_workload(2, scenes=1, duration_s=0.4, batch_us=2_000)
        config = HubConfig(
            num_workers=1, backpressure="drop", ring_capacity_bytes=4096
        )
        with TrackingHub(config) as hub:
            report = run_load(hub, workload)
        drop = report["drop_invariant"]
        assert drop["ok"] is True
        assert drop["refused"] > 0
        assert drop["accepted"] + drop["refused"] == drop["submitted"]
        assert drop["hub_dropped_batches"] == drop["refused"]

    def test_paces_on_each_sensors_own_offset(self):
        """Recordings an hour apart replay side by side at 4x: the feed
        lasts about span/4, not offset/4, and both summaries equal batch
        replay of their recordings."""
        # Both paths frame on the zero-aligned grid, so the late sensor
        # carries an hour of empty leading windows; 1 s windows keep them cheap.
        config = EbbiotConfig(frame_duration_us=1_000_000)
        early = _moving_block_stream(seed=1)
        late = _shifted(_moving_block_stream(seed=2), 3_600_000_000)
        workload = build_workload([("early", early), ("late", late)], 2, 22_000)
        span_s = max(b[-1][0] - b[0][0] for _, b in workload) * 1e-6
        submitted = []

        class Clocked(TrackingHub):
            def submit(self, sensor_id, events):
                submitted.append((sensor_id, time.perf_counter()))
                return super().submit(sensor_id, events)

        with Clocked(HubConfig(num_workers=2, pipeline_config=config)) as hub:
            report = run_load(hub, workload, speed=4.0)
        assert len(submitted) == sum(len(b) for _, b in workload)
        # Both sensors start together: the late one is not held back an hour.
        assert [sid for sid, _ in submitted[:2]] == [sid for sid, _ in workload]
        fed_s = submitted[-1][1] - submitted[0][1]
        assert span_s / 4 - 0.02 <= fed_s < span_s / 4 + 2.0
        for (sensor_id, _), stream in zip(workload, (early, late)):
            expected = EbbiotPipeline(config).process_stream(stream, collect_frames=False)
            summary = report["summaries"][sensor_id]
            assert summary["num_events"] == len(stream)
            assert summary["num_frames"] == expected.num_frames
            assert summary["num_track_observations"] == (
                expected.total_track_observations()
            )


class TestSlos:
    def _report(self, p99=10.0, fps=100.0, refused=0, ok=True):
        return {
            "aggregate": {
                "latency_ms": {"p99_ms": p99},
                "frames_per_s": fps,
            },
            "drop_invariant": {
                "submitted": 100,
                "refused": refused,
                "ok": ok,
            },
        }

    def _args(self, **overrides):
        defaults = dict(
            slo_p99_ms=None, slo_min_fps=None, slo_max_drop_fraction=None
        )
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_all_slos_pass(self):
        assert check_slos(self._report(), self._args()) == []

    def test_each_slo_violation_reported(self):
        args = self._args(
            slo_p99_ms=5.0, slo_min_fps=500.0, slo_max_drop_fraction=0.01
        )
        violations = check_slos(self._report(p99=10.0, fps=100.0, refused=50), args)
        assert len(violations) == 3

    def test_broken_invariant_always_fails(self):
        violations = check_slos(self._report(ok=False), self._args())
        assert len(violations) == 1
        assert "invariant" in violations[0]


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.hub == "process"
        assert args.sensors == 16
        assert args.backpressure == "block"

    def test_end_to_end_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        exit_code = main(
            [
                "--hub",
                "process",
                "--sensors",
                "2",
                "--scenes",
                "1",
                "--duration",
                "0.3",
                "--batch-us",
                "5000",
                "--workers",
                "2",
                "--slo-max-drop-fraction",
                "0.0",
                "--json",
                str(out),
            ]
        )
        assert exit_code == 0
        report = json.loads(out.read_text())
        assert report["slo"]["ok"] is True
        assert report["drop_invariant"]["ok"] is True
        assert report["config"]["hub"] == "process"
        summaries = report["summaries"]
        assert len(summaries) == 2
        assert all(summary["num_frames"] > 0 for summary in summaries.values())
        assert "events/s" in capsys.readouterr().out

    def test_slo_violation_sets_exit_code(self):
        exit_code = main(
            [
                "--hub",
                "thread",
                "--sensors",
                "1",
                "--scenes",
                "1",
                "--duration",
                "0.3",
                "--slo-min-fps",
                "1e9",
            ]
        )
        assert exit_code == 1

    def test_bad_arguments_exit_2(self):
        assert main(["--sensors", "0"]) == 2
        assert main(["--speed", "-1"]) == 2
        assert main(["--scenes", "0"]) == 2
        assert main(["--tracker", "made-up"]) == 2
