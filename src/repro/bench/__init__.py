"""Benchmark harness (``python -m repro.bench``): two gated suites.

The **event_path** suite runs named timed scenarios — the NN-filt and
refractory filters, the end-to-end pipeline of each tracker backend
(EBBIOT, EBBI+KF, NN-filt+EBMS), and the live serving sessions — against
the standard synthetic fleet, reporting throughput and speedup-vs-scalar
for each.  The **serving_scale** suite replays the same fleet through the
thread and process tracking hubs across sensor counts, reporting
aggregate fps, per-sensor scaling efficiency, tail latency and the
headline ``speedup_vs_thread`` ratio.  Each suite compares its numbers against a
committed baseline (``BENCH_event_path.json`` / ``BENCH_serving_scale.
json`` at the repo root), flagging regressions beyond a tolerance.  See
:mod:`repro.bench.harness` for the report/consistency machinery and
:mod:`repro.bench.scenarios` / :mod:`repro.bench.serving_scale` for the
individual workloads.
"""

from repro.bench.compare import Comparison, compare_metric
from repro.bench.harness import (
    FULL_PROFILE,
    QUICK_PROFILE,
    BenchProfile,
    build_report,
    calibrate,
    compare_reports,
    dump_report,
    load_report,
)
from repro.bench.scenarios import SCENARIOS, parse_scenario_list
from repro.bench.serving_scale import (
    FULL_SERVING_PROFILE,
    QUICK_SERVING_PROFILE,
    ServingScaleProfile,
    run_suite,
)

__all__ = [
    "BenchProfile",
    "Comparison",
    "FULL_PROFILE",
    "FULL_SERVING_PROFILE",
    "QUICK_PROFILE",
    "QUICK_SERVING_PROFILE",
    "SCENARIOS",
    "ServingScaleProfile",
    "build_report",
    "calibrate",
    "compare_metric",
    "compare_reports",
    "dump_report",
    "load_report",
    "parse_scenario_list",
    "run_suite",
]
