"""repro.obs — unified observability: metrics, tracing, instrumentation.

One import surface for the three concerns every layer shares:

* :mod:`repro.obs.metrics` — thread-safe Counter/Gauge/Histogram with
  labels, a :class:`MetricsRegistry`, the Prometheus text exporter and a
  JSON state snapshot for cross-process merges;
* :mod:`repro.obs.trace` — a bounded :class:`Tracer` exporting Chrome
  trace-event JSON (``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.instrument` — the opt-in :class:`Instrumentation`
  handle the pipeline threads through its stages;
* :mod:`repro.obs.logsetup` — shared CLI logging configuration.
"""

from repro.obs.instrument import (
    Instrumentation,
    PIPELINE_STAGES,
    STAGE_SECONDS_METRIC,
)
from repro.obs.logsetup import LOG_LEVELS, add_log_level_argument, logging_setup
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
    sample_value,
)
from repro.obs.trace import (
    Tracer,
    merge_chrome_traces,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "LOG_LEVELS",
    "MetricsRegistry",
    "PIPELINE_STAGES",
    "STAGE_SECONDS_METRIC",
    "Tracer",
    "add_log_level_argument",
    "logging_setup",
    "merge_chrome_traces",
    "parse_prometheus_text",
    "sample_value",
    "validate_chrome_trace",
]
