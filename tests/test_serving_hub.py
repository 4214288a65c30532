"""Tests for the tracking hub: its configuration, telemetry and contract.

One hub implementation runs its shard workers on threads
(:class:`TrackingHub`) or forked processes (:class:`ProcessTrackingHub`).
The contract mixins below hold every vehicle-independent behaviour once;
the ``Test*`` classes here bind them to the thread vehicle, and
``test_serving_process_hub.py`` binds the same mixins to the process
vehicle and holds the scenarios parametrized over both.
"""

from __future__ import annotations

import gc
import sys
import threading

import numpy as np
import pytest

from repro.core import EbbiotConfig, EbbiotPipeline
from repro.events.stream import EventStream
from repro.events.types import make_packet
from repro.obs.metrics import DEFAULT_PERCENTILE_WINDOW
from repro.serving import HubConfig, ProtocolError, SensorSession, TrackingHub
from repro.serving.telemetry import TelemetryRegistry
from repro.serving.transport import RingFull, ShardDown


def _moving_block_stream(seed: int, num_frames: int = 10) -> EventStream:
    rng = np.random.default_rng(seed)
    xs, ys, ts = [], [], []
    for frame_index in range(num_frames):
        x0 = 20 + 3 * frame_index
        y0 = 40 + (seed % 60)
        t = frame_index * 66_000 + 10_000
        for dy in range(6):
            for dx in range(6):
                xs.append(x0 + dx)
                ys.append(y0 + dy)
                ts.append(t + int(rng.integers(0, 40_000)))
    packet = make_packet(xs, ys, ts, [1] * len(xs))
    return EventStream(packet, 240, 180)


def _batches(stream: EventStream, batch_us: int = 22_000):
    events = stream.events
    for lo in range(0, int(events["t"][-1]) + 1, batch_us):
        i0, i1 = np.searchsorted(events["t"], [lo, lo + batch_us])
        if i1 > i0:
            yield events[i0:i1]


def _assert_replay_parity(result, stream: EventStream) -> None:
    """A live result equals a batch ``process_stream`` of its recording."""
    expected = EbbiotPipeline(EbbiotConfig()).process_stream(stream)
    assert result.num_events == len(stream)
    assert result.num_frames == expected.num_frames
    assert result.num_track_observations == expected.total_track_observations()


class TestHubConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            HubConfig(num_workers=0)
        with pytest.raises(ValueError):
            HubConfig(ring_capacity_bytes=1024)
        with pytest.raises(ValueError):
            HubConfig(backpressure="retry")
        with pytest.raises(ValueError):
            HubConfig(reorder_slack_us=-1)


# -- the hub contract (bound to a vehicle through ``hub_cls``) ---------------------------


class ParityContract:
    """Live results, callbacks, placement and fleet summaries."""

    hub_cls = TrackingHub

    def test_multi_sensor_results_match_batch_pipeline(self):
        streams = {f"sensor-{i}": _moving_block_stream(seed=i) for i in range(6)}
        with self.hub_cls(HubConfig(num_workers=3)) as hub:
            for sensor_id in streams:
                hub.register(sensor_id)
            for sensor_id, stream in streams.items():
                for batch in _batches(stream):
                    assert hub.submit(sensor_id, batch)
            results = {sid: hub.close_sensor(sid, timeout=60) for sid in streams}
        for sensor_id, stream in streams.items():
            assert results[sensor_id].name == sensor_id
            _assert_replay_parity(results[sensor_id], stream)

    def test_concurrent_submitters_match_batch_pipeline(self):
        """Eight threads each register, stream and close their own sensor at
        once, with a tiny switch interval forcing interleavings inside the
        hub's routing and ring locks (as ``asyncio.to_thread`` closes run
        beside the event loop's submits)."""
        streams = {f"sensor-{i}": _moving_block_stream(seed=i) for i in range(8)}
        batches = {sid: list(_batches(stream)) for sid, stream in streams.items()}
        results, errors = {}, []

        def stream_one(hub, sensor_id):
            try:
                hub.register(sensor_id)
                for batch in batches[sensor_id]:
                    assert hub.submit(sensor_id, batch)
                results[sensor_id] = hub.close_sensor(sensor_id, timeout=60)
            except Exception as error:  # surfaced by the main thread
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self.hub_cls(HubConfig(num_workers=3)) as hub:
                threads = [
                    threading.Thread(target=stream_one, args=(hub, sid), daemon=True)
                    for sid in streams
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), f"{thread.name} is stuck"
                received = hub.telemetry_dict()["sensors"]
        finally:
            sys.setswitchinterval(previous)
        assert not errors, errors
        for sensor_id, stream in streams.items():
            _assert_replay_parity(results[sensor_id], stream)
        assert sum(s["batches_received"] for s in received.values()) == sum(
            len(b) for b in batches.values()
        )

    def test_frames_callback_delivers_all_frames_in_order(self):
        stream = _moving_block_stream(seed=1)
        received = []
        lock = threading.Lock()

        def on_frames(sensor_id, frames):
            with lock:
                received.extend(frames)

        with self.hub_cls(HubConfig(num_workers=2)) as hub:
            hub.register("cam", on_frames=on_frames)
            for batch in _batches(stream):
                hub.submit("cam", batch)
            result = hub.close_sensor("cam", timeout=60)

        assert [f.frame_index for f in received] == list(range(result.num_frames))

    def test_poisoned_batch_does_not_kill_shard(self):
        stream = _moving_block_stream(seed=4)
        bad = make_packet([500], [500], [1_000], [1])  # out of bounds coords
        with self.hub_cls(HubConfig(num_workers=1)) as hub:
            hub.register("cam")
            hub.submit("cam", bad)
            for batch in _batches(stream):
                hub.submit("cam", batch)
            result = hub.close_sensor("cam", timeout=30)
            telemetry = hub.telemetry_dict()["sensors"]["cam"]
        assert result.num_frames > 0
        assert telemetry["dropped_batches"] >= 1

    def test_shard_assignment_is_stable(self):
        hub = self.hub_cls(HubConfig(num_workers=3))
        assert hub.shard_of("cam-1") == hub.shard_of("cam-1")
        shards = {hub.shard_of(f"cam-{i}") for i in range(32)}
        assert shards.issubset(set(range(3)))

    def test_batch_result_aggregates_closed_sensors(self):
        with self.hub_cls(HubConfig(num_workers=2)) as hub:
            for i in range(3):
                hub.register(f"s{i}")
            for i in range(3):
                for batch in _batches(_moving_block_stream(seed=i)):
                    hub.submit(f"s{i}", batch)
            for i in range(3):
                hub.close_sensor(f"s{i}", timeout=60)
            batch_result = hub.batch_result()
        assert len(batch_result) == 3
        assert [r.name for r in batch_result.recordings] == ["s0", "s1", "s2"]
        assert batch_result.total_events > 0


class RegistrationContract:
    """Errors for duplicate, unknown and unstarted use."""

    hub_cls = TrackingHub

    def test_duplicate_registration_rejected(self):
        with self.hub_cls(HubConfig(num_workers=1)) as hub:
            hub.register("cam")
            with pytest.raises(ValueError):
                hub.register("cam")

    def test_submit_to_unknown_sensor_raises(self):
        with self.hub_cls(HubConfig(num_workers=1)) as hub:
            with pytest.raises(KeyError):
                hub.submit("ghost", _moving_block_stream(0).events[:5])
            with pytest.raises(KeyError):
                hub.close_sensor("ghost")

    def test_batch_too_big_for_one_ring_record_is_refused(self):
        # 400 events take 5,200 payload bytes: more than a 4096-byte ring
        # can ever hold in one record, so no amount of draining would help.
        stream = _moving_block_stream(seed=3)
        config = HubConfig(num_workers=1, ring_capacity_bytes=4096)
        with self.hub_cls(config) as hub:
            hub.register("cam")
            too_big = np.concatenate([stream.events] * 2)[:400]
            with pytest.raises(ProtocolError, match="can never fit"):
                hub.submit("cam", too_big)
            with pytest.raises(ProtocolError, match="can never fit"):
                hub.try_submit("cam", too_big)
            for batch in _batches(stream):
                assert hub.submit("cam", batch)
            result = hub.close_sensor("cam", timeout=60)
            telemetry = hub.telemetry.get("cam").to_dict()
        _assert_replay_parity(result, stream)
        assert telemetry["dropped_batches"] == 0

    def test_submit_requires_started_hub(self):
        hub = self.hub_cls(HubConfig(num_workers=1))
        with pytest.raises(RuntimeError):
            hub.register("cam")
        with pytest.raises(RuntimeError):
            hub.submit("cam", _moving_block_stream(0).events[:5])

    @pytest.mark.parametrize("error", [RingFull, ShardDown])
    def test_register_whose_ring_put_fails_leaves_the_id_free(self, error, monkeypatch):
        # A full ring's put raises RingFull after 30 s and an abandoned
        # ring's raises ShardDown; faked at once here.  Either way the id
        # must not stay half-registered, nor linger in telemetry.  An id
        # that was closed earlier keeps its retained telemetry.
        stream = _moving_block_stream(seed=4)
        with self.hub_cls(HubConfig(num_workers=1)) as hub:

            def refuse(*args, **kwargs):
                raise error("refused")

            def refused_register(sensor_id):
                monkeypatch.setattr(hub._rings[0], "put", refuse)
                with pytest.raises(error):
                    hub.register(sensor_id)
                monkeypatch.undo()
                with pytest.raises(KeyError):
                    hub.submit(sensor_id, stream.events[:5])

            refused_register("cam")
            assert hub.sensor_shards() == {}
            assert [stat.num_sensors for stat in hub.shard_stats()] == [0]
            telemetry = hub.telemetry_dict()
            assert telemetry["totals"]["num_sensors"] == 0
            assert "cam" not in telemetry["sensors"]
            assert 'sensor="cam"' not in hub.metrics_text()
            hub.register("cam")
            for batch in _batches(stream):
                assert hub.submit("cam", batch)
            result = hub.close_sensor("cam", timeout=60)
            hub.remove_sensor("cam")
            refused_register("cam")
            retained = hub.telemetry_dict()["sensors"]["cam"]
        _assert_replay_parity(result, stream)
        assert retained["events_received"] == len(stream)
        assert retained["tracker"] == "overlap"

    def test_restarted_hub_has_no_sensors(self):
        stream = _moving_block_stream(seed=5)
        hub = self.hub_cls(HubConfig(num_workers=2))
        with hub:
            hub.register("a")
            hub.close_sensor("a", timeout=60)
        with hub:
            assert hub.sensor_shards() == {}
            assert [stat.num_sensors for stat in hub.shard_stats()] == [0, 0]
            hub.register("a")
            for batch in _batches(stream):
                assert hub.submit("a", batch)
            result = hub.close_sensor("a", timeout=60)
        _assert_replay_parity(result, stream)


class CloseContract:
    """Idempotent close and id reuse after removal."""

    hub_cls = TrackingHub

    def test_double_close_does_not_double_count_fleet(self):
        stream = _moving_block_stream(seed=6)
        with self.hub_cls(HubConfig(num_workers=1)) as hub:
            hub.register("cam")
            for batch in _batches(stream):
                hub.submit("cam", batch)
            first = hub.close_sensor("cam", timeout=60)
            second = hub.close_sensor("cam", timeout=60)
            assert second.num_frames == first.num_frames
            assert second.num_events == first.num_events
            assert len(hub.batch_result()) == 1

    def test_remove_sensor_allows_id_reuse(self):
        # Exercises the submit route cache across close -> remove ->
        # re-register: the stale route must be evicted, not reused.
        stream = _moving_block_stream(seed=7)
        with self.hub_cls(HubConfig(num_workers=2)) as hub:
            hub.register("cam")
            for batch in _batches(stream):
                hub.submit("cam", batch)
            first = hub.close_sensor("cam", timeout=60)
            hub.remove_sensor("cam")
            with pytest.raises(KeyError):
                hub.submit("cam", stream.events[:5])
            # Same id registers again as a fresh session.
            hub.register("cam")
            for batch in _batches(stream):
                hub.submit("cam", batch)
            result = hub.close_sensor("cam", timeout=60)
        assert result.num_frames == first.num_frames > 0


class SheddingContract:
    """The ``"drop"`` policy sheds batches a full ring refuses, and counts them."""

    hub_cls = TrackingHub

    def test_drop_policy_sheds_batches_and_counts_them(self):
        # The one shard is paused, so its ring fills deterministically and
        # nothing drains until the resume; the parent-side ingest counters
        # must account for every shed batch at submit time, before any close.
        batches = list(_batches(_moving_block_stream(seed=2, num_frames=30), 8_000))
        config = HubConfig(num_workers=1, backpressure="drop", ring_capacity_bytes=4096)
        with self.hub_cls(config) as hub:
            hub.register("cam")
            hub.pause_shard(0)
            accepted = [hub.submit("cam", batch) for batch in batches]
            telemetry = hub.telemetry.get("cam").to_dict()
            hub.resume_shard(0)
            result = hub.close_sensor("cam", timeout=60)
        shed = [batch for batch, ok in zip(batches, accepted) if not ok]
        kept = [batch for batch, ok in zip(batches, accepted) if ok]
        assert shed and kept
        assert telemetry["dropped_batches"] == len(shed)
        assert telemetry["dropped_events"] == sum(len(batch) for batch in shed)
        assert telemetry["batches_received"] == len(kept)
        assert result.num_events == sum(len(batch) for batch in kept)


class TestTrackingHub(ParityContract, RegistrationContract, SheddingContract):
    """The contract on worker threads."""


class TestCloseAndRemove(CloseContract):
    """The close/remove contract on worker threads."""

    def test_closed_sessions_are_not_kept(self):
        # Worker threads share this heap, so their sessions can be counted.
        stream = _moving_block_stream(seed=8)
        with TrackingHub(HubConfig(num_workers=1)) as hub:
            for _ in range(5):
                hub.register("leak-probe")
                for batch in _batches(stream):
                    assert hub.submit("leak-probe", batch)
                hub.close_sensor("leak-probe", timeout=60)
                hub.remove_sensor("leak-probe")
            gc.collect()
            kept = [
                obj for obj in gc.get_objects()
                if isinstance(obj, SensorSession) and obj.sensor_id == "leak-probe"
            ]
        assert kept == []


class TestTelemetry:
    def test_latency_window_percentiles(self):
        record = TelemetryRegistry().sensor("cam")
        for ms in range(1, 101):
            record.record_frames(num_frames=1, num_tracks=0, latency_s=ms * 1e-3, late_events=0)
        assert record.frame_latency.count == 100
        assert record.frame_latency.percentile(50) == pytest.approx(0.0505, abs=1e-3)
        assert record.frame_latency.percentile(95) == pytest.approx(0.09505, abs=1e-3)
        assert record.to_dict()["frame_latency"]["p50_ms"] == pytest.approx(50.5, abs=1.0)

    def test_latency_window_empty(self):
        record = TelemetryRegistry().sensor("cam")
        assert record.frame_latency.percentile(95) == 0.0
        assert record.frame_latency.mean == 0.0

    def test_latency_window_bounded_retention(self):
        record = TelemetryRegistry().sensor("cam")
        record.record_frames(
            num_frames=DEFAULT_PERCENTILE_WINDOW + 50, num_tracks=0, latency_s=1.0, late_events=0
        )
        record.record_frames(num_frames=1, num_tracks=0, latency_s=2.0, late_events=0)
        latency = record.to_dict()["frame_latency"]
        assert latency["count"] == DEFAULT_PERCENTILE_WINDOW + 51  # lifetime count
        assert record.frame_latency.percentile(100) == 2.0
        # The window retains only the last DEFAULT_PERCENTILE_WINDOW samples.
        state = record.metrics.state_dict()["families"]
        (family,) = [f for f in state if f["name"] == "repro_sensor_frame_latency_seconds"]
        assert len(family["children"][0]["window"]) == DEFAULT_PERCENTILE_WINDOW

    def test_registry_roundtrip(self):
        registry = TelemetryRegistry()
        record = registry.sensor("cam")
        record.record_batch(100)
        record.record_frames(num_frames=2, num_tracks=3, latency_s=0.01, late_events=1)
        record.record_drop(40)
        assert registry.sensor("cam") is record
        payload = registry.to_dict()
        assert payload["totals"]["num_sensors"] == 1
        assert payload["totals"]["events_received"] == 100
        assert payload["totals"]["frames_emitted"] == 2
        assert payload["totals"]["track_observations"] == 3
        assert payload["totals"]["dropped_events"] == 40
        assert payload["sensors"]["cam"]["late_events"] == 1
        assert payload["sensors"]["cam"]["frame_latency"]["count"] == 2

    def test_registry_get_unknown(self):
        assert TelemetryRegistry().get("nope") is None
