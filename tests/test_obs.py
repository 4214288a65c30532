"""Unit tests for the :mod:`repro.obs` observability primitives."""

import json
import logging
import math
import threading

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Instrumentation,
    LOG_LEVELS,
    MetricsRegistry,
    PIPELINE_STAGES,
    STAGE_SECONDS_METRIC,
    Tracer,
    add_log_level_argument,
    logging_setup,
    merge_chrome_traces,
    parse_prometheus_text,
    sample_value,
    validate_chrome_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, format_value


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("requests_total")
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1)

    def test_labelled_children_are_independent_and_cached(self):
        counter = Counter("events_total", labelnames=("sensor",))
        a = counter.labels(sensor="a")
        a.inc(10)
        counter.labels(sensor="b").inc(1)
        assert counter.labels(sensor="a") is a
        assert counter.labels(sensor="a").value == 10
        assert counter.labels(sensor="b").value == 1

    def test_wrong_labelset_rejected(self):
        counter = Counter("events_total", labelnames=("sensor",))
        with pytest.raises(ValueError, match="takes labels"):
            counter.labels(stage="ebbi")
        with pytest.raises(ValueError, match="requires labels"):
            counter.inc()

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("with spaces")
        with pytest.raises(ValueError, match="invalid label name"):
            Counter("ok_total", labelnames=("1bad",))
        with pytest.raises(ValueError, match="reserved"):
            Counter("ok_total", labelnames=("le",))


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("queue_depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4


class TestHistogram:
    def test_lifetime_count_sum_mean(self):
        histogram = Histogram("latency_seconds")
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.006)

    def test_percentile_empty_window_is_zero(self):
        histogram = Histogram("latency_seconds")
        assert histogram.percentile(50) == 0.0
        assert histogram.percentile(99) == 0.0

    def test_percentile_single_sample_is_itself(self):
        histogram = Histogram("latency_seconds")
        histogram.observe(0.042)
        for q in (0, 1, 50, 99, 100):
            assert histogram.percentile(q) == pytest.approx(0.042)

    def test_percentile_linear_interpolation(self):
        """Matches np.percentile's default method — the telemetry contract."""
        histogram = Histogram("latency_seconds")
        samples = [i / 1000.0 for i in range(1, 101)]  # 1ms .. 100ms
        for value in samples:
            histogram.observe(value)
        assert histogram.percentile(50) == pytest.approx(
            float(np.percentile(samples, 50))
        )
        assert histogram.percentile(50) == pytest.approx(0.0505)

    def test_window_bounds_percentiles_but_not_count(self):
        histogram = Histogram("latency_seconds", window=10)
        for _ in range(50):
            histogram.observe(1.0)
        histogram.observe(9.0)
        assert histogram.count == 51
        # Window holds the last 10 samples: nine 1.0s and one 9.0.
        assert histogram.percentile(100) == pytest.approx(9.0)

    def test_bucket_counts_cumulative_ending_at_inf(self):
        histogram = Histogram("latency_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        counts = histogram._unlabelled().bucket_counts()
        assert counts == [(0.1, 1), (1.0, 2), (math.inf, 3)]

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", buckets=())
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(1.0, 0.5))
        with pytest.raises(ValueError, match="window"):
            Histogram("h", window=0)


class TestFormatValue:
    def test_integers_drop_decimal(self):
        assert format_value(5.0) == "5"
        assert format_value(0.0) == "0"

    def test_floats_and_infinities(self):
        assert format_value(0.25) == "0.25"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(math.nan) == "NaN"


class TestMetricsRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("events_total", labelnames=("sensor",))
        second = registry.counter("events_total", labelnames=("sensor",))
        assert first is second
        assert len(registry) == 1

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.gauge("thing")

    def test_labelset_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing_total", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("thing_total", labelnames=("b",))

    def test_prometheus_text_round_trip(self):
        registry = MetricsRegistry()
        registry.counter(
            "events_total", "Events seen.", labelnames=("sensor",)
        ).labels(sensor="cam-0").inc(42)
        registry.gauge("queue_depth").set(3)
        histogram = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)

        text = registry.to_prometheus_text()
        assert "# TYPE events_total counter" in text
        assert "# HELP events_total Events seen." in text
        samples = parse_prometheus_text(text)
        assert sample_value(samples, "events_total", sensor="cam-0") == 42
        assert sample_value(samples, "queue_depth") == 3
        assert sample_value(samples, "latency_seconds_count") == 2
        assert sample_value(samples, "latency_seconds_sum") == pytest.approx(0.55)
        assert sample_value(samples, "latency_seconds_bucket", le="0.1") == 1
        assert sample_value(samples, "latency_seconds_bucket", le="+Inf") == 2

    def test_label_value_escaping_round_trip(self):
        registry = MetricsRegistry()
        tricky = 'quote " slash \\ newline \n end'
        registry.counter("c_total", labelnames=("k",)).labels(k=tricky).inc()
        samples = parse_prometheus_text(registry.to_prometheus_text())
        assert sample_value(samples, "c_total", k=tricky) == 1

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text("this is not exposition\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text('name{unterminated="x} 1\n')

    def test_concurrent_updates_are_consistent(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", labelnames=("worker",))

        def worker(index):
            child = counter.labels(worker=str(index % 4))
            for _ in range(1000):
                child.inc()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(child.value for _, child in counter.children())
        assert total == 8000


def _record_shard(registry, sensor, events, depth, latencies):
    """Write one sensor's counter, gauge and histogram samples."""
    registry.counter("events_total", "Events seen.", labelnames=("sensor",)).labels(
        sensor=sensor
    ).inc(events)
    registry.gauge("queue_depth", labelnames=("sensor",)).labels(sensor=sensor).set(depth)
    histogram = registry.histogram(
        "latency_seconds", labelnames=("sensor",), buckets=(0.1, 1.0), window=4
    ).labels(sensor=sensor)
    for value in latencies:
        histogram.observe(value)
    return registry


class TestRegistryState:
    """``state_dict``/``merge_state``: the JSON a process shard ships to the hub."""

    def test_state_dict_json_round_trip_reproduces_exposition(self):
        registry = _record_shard(MetricsRegistry(), "cam-0", 7, 2, [0.05, 0.5, 2.0, 0.2, 0.3])
        state = json.loads(json.dumps(registry.state_dict()))
        merged = MetricsRegistry()
        merged.merge_state(state)
        assert merged.to_prometheus_text() == registry.to_prometheus_text()
        (family,) = [f for f in merged.families() if f.name == "latency_seconds"]
        child = family.labels(sensor="cam-0")
        assert child.count == 5  # lifetime count, past the window of 4
        assert child.percentile(100) == 2.0
        assert child.percentile(0) == 0.2

    def test_merging_disjoint_shards_matches_one_shared_registry(self):
        shared = MetricsRegistry()
        _record_shard(shared, "cam-0", 7, 2, [0.05, 0.5])
        _record_shard(shared, "cam-1", 3, 5, [1.5])
        merged = MetricsRegistry()
        for sensor, events, depth, latencies in (
            ("cam-0", 7, 2, [0.05, 0.5]),
            ("cam-1", 3, 5, [1.5]),
        ):
            shard = _record_shard(MetricsRegistry(), sensor, events, depth, latencies)
            merged.merge_state(shard.state_dict())
        assert merged.to_prometheus_text() == shared.to_prometheus_text()

    def test_merge_adds_counters_and_histograms_but_sets_gauges(self):
        state = _record_shard(MetricsRegistry(), "cam-0", 7, 2, [0.05, 0.5]).state_dict()
        merged = MetricsRegistry()
        merged.merge_state(state)
        merged.merge_state(state)
        samples = parse_prometheus_text(merged.to_prometheus_text())
        assert sample_value(samples, "events_total", sensor="cam-0") == 14
        assert sample_value(samples, "queue_depth", sensor="cam-0") == 2
        assert sample_value(samples, "latency_seconds_count", sensor="cam-0") == 4
        assert sample_value(samples, "latency_seconds_bucket", sensor="cam-0", le="0.1") == 2
        with pytest.raises(ValueError, match="unknown metric kind"):
            merged.merge_state({"families": [dict(state["families"][0], kind="summary")]})


class TestTracer:
    def test_span_records_duration_event(self):
        tracer = Tracer()
        with tracer.span("work", args={"k": 1}):
            pass
        events = tracer.events()
        assert len(events) == 1
        span = events[0]
        assert span["ph"] == "X"
        assert span["name"] == "work"
        assert span["dur"] >= 0
        assert span["args"] == {"k": 1}

    def test_buffer_limit_drops_instead_of_growing(self):
        tracer = Tracer(buffer_limit=3)
        for index in range(5):
            tracer.record_span(f"s{index}", 0.0, 1.0)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_chrome_trace_document_validates(self):
        tracer = Tracer()
        with tracer.span("stage-a"):
            pass
        trace = tracer.chrome_trace(process_name="unit-test")
        assert trace["displayTimeUnit"] == "ms"
        spans = validate_chrome_trace(trace)
        assert [span["name"] for span in spans] == ["stage-a"]
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert metadata[0]["args"] == {"name": "unit-test"}

    def test_merge_assigns_one_pid_per_track(self):
        first, second = Tracer(), Tracer()
        with first.span("a"):
            pass
        with second.span("b"):
            pass
        merged = merge_chrome_traces(
            [("rec-0", first.events()), ("rec-1", second.events())]
        )
        spans = validate_chrome_trace(merged)
        assert {span["pid"] for span in spans} == {0, 1}
        names = [
            (e["pid"], e["args"]["name"])
            for e in merged["traceEvents"]
            if e["ph"] == "M"
        ]
        assert names == [(0, "rec-0"), (1, "rec-1")]

    def test_validate_rejects_malformed_documents(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"no": "traceEvents"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 0}]}
            )


class TestInstrumentation:
    def test_stage_accumulates_seconds_and_calls(self):
        instrumentation = Instrumentation()
        for _ in range(3):
            with instrumentation.stage("ebbi"):
                pass
        assert instrumentation.stage_calls["ebbi"] == 3
        assert instrumentation.stage_seconds["ebbi"] >= 0
        snapshot = instrumentation.snapshot()
        instrumentation.reset()
        assert instrumentation.stage_seconds == {}
        assert snapshot["ebbi"] >= 0  # snapshot is a detached copy

    def test_sampling_thins_tracer_but_not_accumulators(self):
        tracer = Tracer()
        instrumentation = Instrumentation(tracer=tracer, sample_every=2)
        for frame_index in range(4):
            with instrumentation.frame(frame_index, 0, 66_000, 100):
                with instrumentation.stage("ebbi"):
                    pass
        assert instrumentation.stage_calls["ebbi"] == 4
        stage_spans = [e for e in tracer.events() if e["cat"] == "stage"]
        assert len(stage_spans) == 2  # frames 0 and 2 only

    def test_metrics_sink_labelled_by_stage(self):
        registry = MetricsRegistry()
        instrumentation = Instrumentation(
            metrics=registry, labels={"sensor": "cam-0"}
        )
        with instrumentation.stage("tracker"):
            pass
        samples = parse_prometheus_text(registry.to_prometheus_text())
        value = sample_value(
            samples, STAGE_SECONDS_METRIC, sensor="cam-0", stage="tracker"
        )
        assert value is not None and value >= 0

    def test_bad_sample_every_rejected(self):
        with pytest.raises(ValueError, match="sample_every"):
            Instrumentation(sample_every=0)

    def test_pipeline_stages_constant(self):
        assert PIPELINE_STAGES == ("ebbi", "median", "rpn", "roe", "tracker")


class TestLoggingSetup:
    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            logging_setup("chatty")

    def test_configures_root_level(self):
        logging_setup("warning")
        assert logging.getLogger().level == logging.WARNING
        logging_setup("info")
        assert logging.getLogger().level == logging.INFO

    def test_add_log_level_argument(self):
        import argparse

        parser = argparse.ArgumentParser()
        add_log_level_argument(parser)
        assert parser.parse_args([]).log_level == "info"
        assert parser.parse_args(["--log-level", "debug"]).log_level == "debug"
        with pytest.raises(SystemExit):
            parser.parse_args(["--log-level", "nope"])

    def test_levels_cover_the_usual_suspects(self):
        assert set(LOG_LEVELS) == {"debug", "info", "warning", "error"}

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
