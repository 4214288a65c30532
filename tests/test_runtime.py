"""Tests for the multi-recording streaming runtime."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import EbbiotConfig, EbbiotPipeline
from repro.evaluation.mot_metrics import MotSummary, compute_mot_summary
from repro.events.stream import EventStream
from repro.events.types import make_packet
from repro.runtime import (
    BatchResult,
    RecordingJob,
    RecordingResult,
    RunnerConfig,
    StreamRunner,
    build_scene_jobs,
    build_scene_recordings,
    merge_mot_summaries,
    run_recording,
)
from repro.simulation.ground_truth import GroundTruthBox, GroundTruthFrame
from repro.utils.shares import usable_cpus


def _moving_block_stream(seed: int, num_frames: int = 12) -> EventStream:
    """A small deterministic recording: one 6x6 block crossing the view."""
    rng = np.random.default_rng(seed)
    xs, ys, ts = [], [], []
    for frame_index in range(num_frames):
        x0 = 20 + 3 * frame_index
        y0 = 60 + (seed % 40)
        t = frame_index * 66_000 + 10_000
        for dy in range(6):
            for dx in range(6):
                xs.append(x0 + dx)
                ys.append(y0 + dy)
                ts.append(t + int(rng.integers(0, 40_000)))
    packet = make_packet(xs, ys, ts, [1] * len(xs))
    return EventStream(packet, 240, 180)


def _jobs(count: int):
    return [
        RecordingJob(name=f"rec-{i}", stream=_moving_block_stream(seed=i))
        for i in range(count)
    ]


class TestRunRecording:
    def test_matches_direct_pipeline_run(self):
        job = _jobs(1)[0]
        config = RunnerConfig(executor="serial")
        result = run_recording(job, config)

        pipeline = EbbiotPipeline(EbbiotConfig())
        direct = pipeline.process_stream(job.stream)
        assert result.name == "rec-0"
        assert result.num_events == len(job.stream)
        assert result.num_frames == direct.num_frames
        assert result.mean_events_per_frame == pytest.approx(
            direct.mean_events_per_frame
        )
        assert result.mean_active_pixel_fraction == pytest.approx(
            direct.mean_active_pixel_fraction
        )
        assert result.mean_active_trackers == pytest.approx(
            direct.mean_active_trackers
        )
        assert result.num_track_observations == direct.total_track_observations()
        assert result.mot is None

    def test_ground_truth_is_scored_at_iou_0_3(self):
        """Each ground-truth box sits beside a reported box at an IoU of 0.4:
        the runner's CLEAR-MOT, at IoU 0.3, matches every one of them, where
        a threshold of 0.5 would match none."""
        stream = _jobs(1)[0].stream
        observations = EbbiotPipeline(EbbiotConfig()).process_stream(
            stream
        ).track_history.observations
        assert observations
        frames = {}
        for observation in observations:
            box = observation.box.translated(3 * observation.box.width / 7, 0)
            frame = frames.setdefault(observation.t_us, GroundTruthFrame(observation.t_us))
            frame.boxes.append(GroundTruthBox(observation.track_id, "car", box))
        ground_truth = list(frames.values())
        job = RecordingJob(name="gt", stream=stream, ground_truth=ground_truth)
        result = run_recording(job, RunnerConfig(executor="serial"))
        assert result.mot == compute_mot_summary(observations, ground_truth, iou_threshold=0.3)
        assert result.mot.num_matches == len(observations)
        assert compute_mot_summary(observations, ground_truth, iou_threshold=0.5).num_matches == 0

    def test_per_job_config_overrides_shared_config(self):
        job = _jobs(1)[0]
        job.config = EbbiotConfig(min_proposal_area=10_000.0)
        result = run_recording(job, RunnerConfig())
        assert result.num_proposals == 0

    def test_throughput_properties(self):
        result = RecordingResult(
            name="x",
            num_events=1000,
            num_frames=10,
            duration_s=2.0,
            wall_time_s=0.5,
            mean_active_pixel_fraction=0.01,
            mean_events_per_frame=100.0,
            mean_active_trackers=1.0,
            num_tracks=1,
            num_track_observations=8,
            num_proposals=12,
        )
        assert result.events_per_second == pytest.approx(2000.0)
        assert result.realtime_factor == pytest.approx(4.0)


class TestStreamRunner:
    def test_serial_and_thread_agree(self):
        jobs = _jobs(3)
        serial = StreamRunner(RunnerConfig(executor="serial")).run(jobs)
        threaded = StreamRunner(RunnerConfig(executor="thread", max_workers=3)).run(jobs)
        assert [r.name for r in serial.recordings] == [
            r.name for r in threaded.recordings
        ]
        for a, b in zip(serial.recordings, threaded.recordings):
            assert a.num_events == b.num_events
            assert a.num_frames == b.num_frames
            assert a.num_track_observations == b.num_track_observations
            assert a.mean_events_per_frame == pytest.approx(b.mean_events_per_frame)

    def test_process_executor_agrees_with_serial(self):
        # Exercises pickling of jobs and results across process boundaries.
        jobs = _jobs(2)
        serial = StreamRunner(RunnerConfig(executor="serial")).run(jobs)
        processed = StreamRunner(
            RunnerConfig(executor="process", max_workers=2)
        ).run(jobs)
        for a, b in zip(serial.recordings, processed.recordings):
            assert a.name == b.name
            assert a.num_events == b.num_events
            assert a.num_frames == b.num_frames
            assert a.num_track_observations == b.num_track_observations
            assert a.mean_active_pixel_fraction == pytest.approx(
                b.mean_active_pixel_fraction
            )

    def test_process_workers_count_their_part_of_the_cpus(self):
        # Worker processes replay side by side, so none takes helpers on
        # the CPUs the others use.
        runner = StreamRunner(RunnerConfig(executor="process", max_workers=2))
        with runner._make_executor(2) as executor:
            cpus = executor.submit(usable_cpus).result(timeout=60)
        assert cpus == max(1, len(os.sched_getaffinity(0)) // 2)
        assert usable_cpus() == len(os.sched_getaffinity(0))

    def test_results_keep_submission_order(self):
        jobs = _jobs(5)
        batch = StreamRunner(RunnerConfig(executor="thread", max_workers=5)).run(jobs)
        assert [r.name for r in batch.recordings] == [job.name for job in jobs]

    def test_empty_job_list(self):
        batch = StreamRunner().run([])
        assert len(batch) == 0
        assert batch.total_events == 0
        assert batch.events_per_second == 0.0
        assert batch.mot is None

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError):
            RunnerConfig(executor="gpu")

    def test_with_executor_returns_new_runner(self):
        runner = StreamRunner(RunnerConfig(executor="thread"))
        serial = runner.with_executor("serial")
        assert serial.config.executor == "serial"
        assert runner.config.executor == "thread"

    def test_resolved_max_workers_caps_at_job_count(self):
        config = RunnerConfig(max_workers=16)
        assert config.resolved_max_workers(3) == 3
        assert RunnerConfig().resolved_max_workers(1) == 1


class TestBatchAggregation:
    def _result(self, name, events, frames, alpha, trackers, mot=None):
        return RecordingResult(
            name=name,
            num_events=events,
            num_frames=frames,
            duration_s=1.0,
            wall_time_s=0.1,
            mean_active_pixel_fraction=alpha,
            mean_events_per_frame=events / frames if frames else 0.0,
            mean_active_trackers=trackers,
            num_tracks=1,
            num_track_observations=4,
            num_proposals=5,
            mot=mot,
        )

    def test_fleet_totals_and_means(self):
        batch = BatchResult(
            recordings=[
                self._result("a", 1000, 10, 0.02, 2.0),
                self._result("b", 500, 30, 0.01, 1.0),
            ],
            wall_time_s=2.0,
        )
        assert batch.total_events == 1500
        assert batch.total_frames == 40
        assert batch.events_per_second == pytest.approx(750.0)
        # Frame-weighted: (0.02 * 10 + 0.01 * 30) / 40.
        assert batch.mean_active_pixel_fraction == pytest.approx(0.0125)
        assert batch.mean_events_per_frame == pytest.approx(1500 / 40)
        assert batch.mean_active_trackers == pytest.approx((2.0 * 10 + 30) / 40)

    def test_merge_mot_summaries_pools_counts(self):
        a = MotSummary(
            mota=0.9,
            motp=0.8,
            num_misses=1,
            num_false_positives=1,
            num_id_switches=0,
            num_ground_truth_boxes=20,
            num_matches=18,
        )
        b = MotSummary(
            mota=0.5,
            motp=0.6,
            num_misses=4,
            num_false_positives=1,
            num_id_switches=0,
            num_ground_truth_boxes=10,
            num_matches=6,
        )
        merged = merge_mot_summaries([a, b])
        assert merged.num_ground_truth_boxes == 30
        assert merged.num_misses == 5
        assert merged.mota == pytest.approx(1.0 - 7 / 30)
        assert merged.motp == pytest.approx((0.8 * 18 + 0.6 * 6) / 24)

    def test_merge_mot_summaries_empty(self):
        assert merge_mot_summaries([]) is None

    def test_batch_mot_skips_recordings_without_gt(self):
        with_mot = self._result(
            "a",
            100,
            10,
            0.01,
            1.0,
            mot=MotSummary(
                mota=1.0,
                motp=0.9,
                num_misses=0,
                num_false_positives=0,
                num_id_switches=0,
                num_ground_truth_boxes=5,
                num_matches=5,
            ),
        )
        without = self._result("b", 100, 10, 0.01, 1.0)
        batch = BatchResult(recordings=[with_mot, without], wall_time_s=1.0)
        assert batch.mot is not None
        assert batch.mot.num_ground_truth_boxes == 5

    def test_to_dict_round_trips_through_json(self):
        batch = BatchResult(
            recordings=[self._result("a", 100, 10, 0.01, 1.0)], wall_time_s=1.0
        )
        payload = json.loads(json.dumps(batch.to_dict()))
        assert payload["fleet"]["num_recordings"] == 1
        assert payload["recordings"][0]["name"] == "a"

    def test_format_table_mentions_every_recording(self):
        batch = BatchResult(
            recordings=[
                self._result("site-a", 100, 10, 0.01, 1.0),
                self._result("site-b", 200, 10, 0.01, 1.0),
            ],
            wall_time_s=1.0,
        )
        table = batch.format_table()
        assert "site-a" in table and "site-b" in table
        assert "fleet:" in table


class TestSceneFleet:
    def test_build_scene_recordings_distinct_names_and_seeds(self):
        recordings = build_scene_recordings(3, duration_s=1.0)
        names = [r.name for r in recordings]
        assert len(set(names)) == 3
        seeds = [r.spec.seed for r in recordings]
        assert len(set(seeds)) == 3

    def test_jobs_carry_ground_truth_and_roe(self):
        jobs = build_scene_jobs(2, duration_s=1.0)
        assert len(jobs) == 2
        for job in jobs:
            assert job.ground_truth is not None
            assert job.config is not None
        # The ENG-like site has foliage, so its job's ROE is non-empty.
        assert jobs[0].config.roe_boxes

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            build_scene_recordings(0)
        with pytest.raises(ValueError):
            build_scene_recordings(1, duration_s=0.0)

    def test_end_to_end_fleet_run_with_mot(self):
        jobs = build_scene_jobs(2, duration_s=2.0)
        batch = StreamRunner(RunnerConfig(executor="thread")).run(jobs)
        assert len(batch) == 2
        assert batch.total_events > 0
        assert batch.total_frames > 0
        assert all(r.mot is not None for r in batch.recordings)
        summary = batch.fleet_summary()
        assert summary["num_recordings"] == 2
        assert summary["mot"] is not None


class TestCli:
    def test_main_runs_and_emits_json(self, tmp_path, capsys):
        from repro.runtime.__main__ import main

        json_path = tmp_path / "fleet.json"
        exit_code = main(
            [
                "--scenes",
                "2",
                "--duration",
                "1",
                "--executor",
                "serial",
                "--json",
                str(json_path),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "fleet:" in captured.out
        payload = json.loads(json_path.read_text())
        assert payload["fleet"]["num_recordings"] == 2
        assert len(payload["recordings"]) == 2

    def test_main_rejects_bad_arguments(self, capsys):
        from repro.runtime.__main__ import main

        assert main(["--scenes", "0"]) == 2
        assert main(["--scenes", "2", "--duration", "0"]) == 2


class TestProcessExecutorCoverage:
    def test_process_executor_applies_per_job_config(self):
        # Per-job configs must survive pickling into the worker process.
        job = _jobs(1)[0]
        job.config = EbbiotConfig(min_proposal_area=10_000.0)
        batch = StreamRunner(
            RunnerConfig(executor="process", max_workers=1)
        ).run([job])
        assert batch.recordings[0].num_proposals == 0

    def test_process_executor_handles_empty_recording(self):
        from repro.events.types import empty_packet

        jobs = [
            RecordingJob(name="empty", stream=EventStream(empty_packet(), 240, 180)),
            _jobs(1)[0],
        ]
        batch = StreamRunner(
            RunnerConfig(executor="process", max_workers=2)
        ).run(jobs)
        empty, nonempty = batch.recordings
        assert empty.num_events == 0
        assert empty.num_frames == 0
        assert nonempty.num_frames > 0


class TestZeroFrameAggregation:
    def test_run_recording_on_empty_stream(self):
        from repro.events.types import empty_packet

        job = RecordingJob(name="empty", stream=EventStream(empty_packet(), 240, 180))
        result = run_recording(job, RunnerConfig(executor="serial"))
        assert result.num_events == 0
        assert result.num_frames == 0
        assert result.mean_active_pixel_fraction == 0.0
        assert result.mean_events_per_frame == 0.0
        assert result.mean_active_trackers == 0.0
        assert result.events_per_second == 0.0

    def test_fleet_means_over_zero_frame_recordings_are_finite(self):
        # Fleet means must be 0.0, not NaN, when no recording has frames.
        def zero_frame(name):
            return RecordingResult(
                name=name,
                num_events=0,
                num_frames=0,
                duration_s=0.0,
                wall_time_s=0.0,
                mean_active_pixel_fraction=0.0,
                mean_events_per_frame=0.0,
                mean_active_trackers=0.0,
                num_tracks=0,
                num_track_observations=0,
                num_proposals=0,
            )

        batch = BatchResult(
            recordings=[zero_frame("a"), zero_frame("b")], wall_time_s=0.0
        )
        summary = batch.fleet_summary()
        for key in (
            "mean_active_pixel_fraction",
            "mean_events_per_frame",
            "mean_active_trackers",
            "events_per_second",
        ):
            value = summary.get(key, getattr(batch, key, None))
            assert value == 0.0, key
        assert not any(
            isinstance(v, float) and np.isnan(v)
            for v in summary.values()
            if isinstance(v, float)
        )

    def test_mixed_zero_and_nonzero_frame_recordings(self):
        from repro.events.types import empty_packet

        jobs = [
            RecordingJob(name="empty", stream=EventStream(empty_packet(), 240, 180)),
            _jobs(1)[0],
        ]
        batch = StreamRunner(RunnerConfig(executor="serial")).run(jobs)
        assert batch.total_frames > 0
        assert np.isfinite(batch.mean_active_pixel_fraction)
        assert np.isfinite(batch.mean_events_per_frame)


class TestSceneDiversity:
    def test_default_mix_cycles_four_site_types(self):
        from repro.runtime import DEFAULT_SITE_SPECS

        recordings = build_scene_recordings(4, duration_s=1.0)
        prefixes = [r.name.split("-")[0] for r in recordings]
        assert prefixes == [spec.name for spec in DEFAULT_SITE_SPECS]
        assert prefixes == ["ENG", "LT4", "RAIN", "CROSS"]

    def test_rain_recording_is_noisier_than_lt4(self):
        from repro.runtime import build_rain_recording
        from repro.datasets.synthetic import LT4_LIKE_SPEC, build_recording

        rain = build_rain_recording(duration_s=1.0, seed=1)
        quiet = build_recording(LT4_LIKE_SPEC, duration_override_s=1.0)
        assert rain.stream.mean_event_rate > 2 * quiet.stream.mean_event_rate

    def test_crossing_recording_produces_occlusion(self):
        from repro.core import EbbiotPipeline
        from repro.runtime import build_crossing_recording

        recording = build_crossing_recording(duration_s=3.0, seed=5)
        assert recording.annotations.num_tracks() == 2
        pipeline = EbbiotPipeline(EbbiotConfig())
        pipeline.process_stream(recording.stream, collect_frames=False)
        assert pipeline.tracker.occlusions_detected > 0

    def test_special_scenes_work_in_fleet_run(self):
        jobs = build_scene_jobs(4, duration_s=1.0)
        batch = StreamRunner(RunnerConfig(executor="thread")).run(jobs)
        assert len(batch) == 4
        assert all(r.num_frames > 0 for r in batch.recordings)

    def test_custom_site_spec_overrides_are_respected(self):
        from dataclasses import replace

        from repro.runtime import RAIN_LIKE_SPEC

        quiet_rain = replace(RAIN_LIKE_SPEC, noise_rate_hz_per_pixel=0.05)
        quiet = build_scene_recordings(1, duration_s=1.0, site_specs=[quiet_rain])
        loud = build_scene_recordings(1, duration_s=1.0, site_specs=[RAIN_LIKE_SPEC])
        assert quiet[0].stream.mean_event_rate < loud[0].stream.mean_event_rate / 2


class TestTrackerBackendsInRuntime:
    def test_run_recording_records_backend_name(self):
        job = _jobs(1)[0]
        job.config = EbbiotConfig(tracker="kalman")
        result = run_recording(job, RunnerConfig(executor="serial"))
        assert result.tracker == "kalman"
        assert result.to_dict()["tracker"] == "kalman"

    def test_jobs_from_recordings_cycles_trackers(self):
        recordings = build_scene_recordings(3, duration_s=1.0)
        from repro.runtime.scenes import jobs_from_recordings

        jobs = jobs_from_recordings(recordings, trackers=("overlap", "ebms"))
        assert [job.config.tracker for job in jobs] == ["overlap", "ebms", "overlap"]
        # A single string applies fleet-wide.
        jobs = jobs_from_recordings(recordings, trackers="kalman")
        assert all(job.config.tracker == "kalman" for job in jobs)
        # ROE boxes still come from each recording.
        assert jobs[0].config.roe_boxes

    def test_batch_result_groups_by_tracker(self):
        def recording(name, tracker, frames, trackers_mean):
            return RecordingResult(
                name=name,
                num_events=100,
                num_frames=frames,
                duration_s=1.0,
                wall_time_s=0.5,
                mean_active_pixel_fraction=0.1,
                mean_events_per_frame=10.0,
                mean_active_trackers=trackers_mean,
                num_tracks=1,
                num_track_observations=5,
                num_proposals=5,
                tracker=tracker,
            )

        batch = BatchResult(
            recordings=[
                recording("a", "overlap", 10, 2.0),
                recording("b", "kalman", 10, 4.0),
                recording("c", "overlap", 30, 2.0),
            ],
            wall_time_s=1.0,
        )
        assert batch.trackers == ["kalman", "overlap"]
        groups = batch.by_tracker()
        assert set(groups) == {"overlap", "kalman"}
        assert len(groups["overlap"]) == 2
        assert groups["kalman"].mean_active_trackers == pytest.approx(4.0)
        assert groups["overlap"].mean_active_trackers == pytest.approx(2.0)
        payload = batch.to_dict()
        assert set(payload["by_tracker"]) == {"overlap", "kalman"}
        assert payload["fleet"]["trackers"] == ["kalman", "overlap"]
        # The per-recording table carries the backend column.
        assert "kalman" in batch.format_table()

    def test_mixed_backend_fleet_runs_end_to_end(self):
        jobs = build_scene_jobs(3, duration_s=1.0, trackers=("overlap", "kalman", "ebms"))
        batch = StreamRunner(RunnerConfig(executor="serial")).run(jobs)
        assert [r.tracker for r in batch.recordings] == ["overlap", "kalman", "ebms"]
        groups = batch.by_tracker()
        assert set(groups) == {"overlap", "kalman", "ebms"}
        for sub in groups.values():
            assert sub.mot is not None

    def test_cli_tracker_flag(self, tmp_path, capsys):
        from repro.runtime.__main__ import main

        json_path = tmp_path / "fleet.json"
        exit_code = main(
            [
                "--scenes",
                "2",
                "--duration",
                "1",
                "--executor",
                "serial",
                "--tracker",
                "kalman",
                "--output",
                str(json_path),
            ]
        )
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert payload["fleet"]["trackers"] == ["kalman"]
        assert all(r["tracker"] == "kalman" for r in payload["recordings"])

    def test_cli_rejects_unknown_tracker(self, capsys):
        from repro.runtime.__main__ import main

        assert main(["--scenes", "1", "--tracker", "made-up"]) == 2
        assert "unknown tracker backend" in capsys.readouterr().err
