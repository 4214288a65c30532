"""Observability through the serving layer: scrape, trace, telemetry."""

import threading

import numpy as np
import pytest

from repro.core.config import EbbiotConfig
from repro.events.stream import EventStream
from repro.events.types import make_packet
from repro.obs import (
    PIPELINE_STAGES,
    STAGE_SECONDS_METRIC,
    parse_prometheus_text,
    sample_value,
    validate_chrome_trace,
)
from repro.serving import (
    AsyncTrackingServer,
    HubConfig,
    TrackingHub,
    fetch_trace,
    scrape_metrics,
    stream_recording,
)
from repro.serving.telemetry import TelemetryRegistry


def _moving_block_stream(seed: int = 0, frames: int = 12) -> EventStream:
    rng = np.random.default_rng(seed)
    xs, ys, ts = [], [], []
    for frame_index in range(frames):
        x0 = 20 + 4 * frame_index
        t = frame_index * 66_000 + 5_000
        for dy in range(8):
            for dx in range(8):
                xs.append(x0 + dx)
                ys.append(60 + dy)
                ts.append(t + int(rng.integers(0, 50_000)))
    return EventStream(make_packet(xs, ys, ts, [1] * len(xs)), 240, 180)


class TestLatencyWindowEdgeCases:
    """A sensor's frame-latency window: its histogram child and its JSON."""

    def test_empty_window(self):
        record = TelemetryRegistry().sensor("cam")
        assert record.frame_latency.count == 0
        assert record.frame_latency.mean == 0.0
        assert record.frame_latency.percentile(50) == 0.0
        assert record.to_dict()["frame_latency"] == {
            "count": 0,
            "mean_ms": 0.0,
            "p50_ms": 0.0,
            "p95_ms": 0.0,
            "p99_ms": 0.0,
        }

    def test_single_sample_is_every_percentile(self):
        record = TelemetryRegistry().sensor("cam")
        record.record_frames(num_frames=1, num_tracks=0, latency_s=0.033, late_events=0)
        assert record.frame_latency.count == 1
        assert record.frame_latency.mean == pytest.approx(0.033)
        for q in (0, 1, 50, 95, 99, 100):
            assert record.frame_latency.percentile(q) == pytest.approx(0.033)
        latency = record.to_dict()["frame_latency"]
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert latency[key] == pytest.approx(33.0)

    def test_linear_interpolation_documented_and_used(self):
        """Percentiles interpolate between closest ranks (NumPy default)."""
        record = TelemetryRegistry().sensor("cam")
        for value in [i / 1000.0 for i in range(1, 101)]:
            record.record_frames(num_frames=1, num_tracks=0, latency_s=value, late_events=0)
        assert record.frame_latency.percentile(50) == pytest.approx(0.0505)
        assert record.to_dict()["frame_latency"]["p50_ms"] == pytest.approx(50.5)
        assert "linear interpolation" in type(record.frame_latency).percentile.__doc__


class TestTelemetryConcurrency:
    def test_concurrent_record_and_snapshot(self):
        """Snapshots taken while recorders hammer the registry stay sane."""
        registry = TelemetryRegistry()
        num_threads = 4
        iterations = 500
        snapshots = []
        stop = threading.Event()

        def recorder(index):
            record = registry.sensor(f"cam-{index}")
            for _ in range(iterations):
                record.record_batch(num_events=10)
                record.record_frames(
                    num_frames=1, num_tracks=2, latency_s=0.01, late_events=0
                )

        def snapshotter():
            while not stop.is_set():
                snapshots.append(registry.to_dict())

        threads = [
            threading.Thread(target=recorder, args=(i,)) for i in range(num_threads)
        ]
        reader = threading.Thread(target=snapshotter)
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        reader.join()

        final = registry.to_dict()
        assert final["totals"]["events_received"] == num_threads * iterations * 10
        assert final["totals"]["frames_emitted"] == num_threads * iterations
        assert final["totals"]["track_observations"] == num_threads * iterations * 2
        # Every mid-flight snapshot is internally consistent: totals are
        # the sum of the per-sensor values it shows.
        assert snapshots
        for snapshot in snapshots:
            per_sensor = sum(
                s["events_received"] for s in snapshot["sensors"].values()
            )
            assert snapshot["totals"]["events_received"] == per_sensor

    def test_prometheus_exposition_always_available(self):
        registry = TelemetryRegistry()
        registry.sensor("cam-0").record_batch(num_events=7)
        samples = parse_prometheus_text(registry.to_prometheus_text())
        assert sample_value(
            samples, "repro_sensor_events_received_total", sensor="cam-0"
        ) == 7


class TestLiveScraping:
    def test_metrics_and_trace_answered_without_hello(self):
        """Monitoring commands are exempt from the sensor handshake."""
        with AsyncTrackingServer() as server:
            host, port = server.address
            text = scrape_metrics(host, port)
            parse_prometheus_text(text)  # must parse even when empty-ish
            assert fetch_trace(host, port) is None  # uninstrumented hub

    def test_instrumented_hub_serves_stage_metrics_and_trace(self):
        stream = _moving_block_stream(seed=3)
        config = HubConfig(
            instrument=True, pipeline_config=EbbiotConfig(tracker="overlap")
        )
        with AsyncTrackingServer(hub_config=config) as server:
            host, port = server.address
            frames, summary = stream_recording(host, port, "cam-0", stream)
            assert summary["num_frames"] > 0
            assert set(summary["stage_seconds"]) == set(PIPELINE_STAGES)

            samples = parse_prometheus_text(scrape_metrics(host, port))
            for stage in PIPELINE_STAGES:
                assert (
                    sample_value(
                        samples, STAGE_SECONDS_METRIC, sensor="cam-0", stage=stage
                    )
                    is not None
                )
            assert sample_value(
                samples, "repro_sensor_events_received_total", sensor="cam-0"
            ) == len(stream)

            trace = fetch_trace(host, port)
            spans = validate_chrome_trace(trace)
            stage_names = {s["name"] for s in spans if s["cat"] == "stage"}
            assert stage_names == set(PIPELINE_STAGES)

    def test_client_request_metrics_and_trace_mid_session(self):
        from repro.serving import SensorClient

        stream = _moving_block_stream(seed=4)
        config = HubConfig(instrument=True)
        with AsyncTrackingServer(hub_config=config) as server:
            host, port = server.address
            with SensorClient(host, port, "cam-0") as client:
                client.send_events(stream.events)
                exposition = client.request_metrics()
                parse_prometheus_text(exposition)
                trace = client.request_trace()
                assert trace is not None and "traceEvents" in trace
                client.finish()


class TestInstrumentedHub:
    def test_hub_merges_sensor_stage_costs_into_one_registry(self):
        config = HubConfig(instrument=True, num_workers=2)
        hub = TrackingHub(config)
        hub.start()
        try:
            streams = {
                "cam-0": _moving_block_stream(seed=5),
                "cam-1": _moving_block_stream(seed=6),
            }
            for sensor_id, stream in streams.items():
                hub.register(sensor_id)
                hub.submit(sensor_id, stream.events)
            for sensor_id in streams:
                hub.close_sensor(sensor_id)
            samples = parse_prometheus_text(hub.metrics_text())
            for sensor_id in streams:
                assert (
                    sample_value(
                        samples,
                        STAGE_SECONDS_METRIC,
                        sensor=sensor_id,
                        stage="tracker",
                    )
                    is not None
                )
            trace = hub.chrome_trace()
            assert validate_chrome_trace(trace)
        finally:
            hub.stop()

    def test_uninstrumented_hub_has_no_tracer(self):
        hub = TrackingHub()
        assert hub.chrome_trace() is None
        parse_prometheus_text(hub.metrics_text())

    def test_bad_trace_sample_rejected(self):
        with pytest.raises(ValueError, match="trace_sample_every"):
            HubConfig(trace_sample_every=0)
