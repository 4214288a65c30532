"""Micro-benchmark harness: profiles, timing, calibration, regression check.

``python -m repro.bench`` runs named scenarios (:mod:`repro.bench.scenarios`)
against the standard synthetic fleet, emits a ``BENCH_event_path.json``-style
artifact, and — given a committed baseline — flags throughput regressions.

Two kinds of metric make the cross-machine comparison meaningful:

* ``speedup_vs_scalar`` ratios (vectorized vs the ``REPRO_FORCE_SCALAR``
  reference on the *same* machine) are machine-independent and compared
  directly;
* absolute throughputs are normalized by a :func:`calibrate` score — a
  fixed NumPy + Python-interpreter workload timed at report time — so a
  slower CI runner does not read as a regression of the code.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bench.compare import Comparison, compare_metric

#: Report schema version; bump when the JSON layout changes incompatibly.
REPORT_VERSION = 1


@dataclass(frozen=True)
class BenchProfile:
    """Workload sizes for one harness run.

    ``full`` is the committed-baseline configuration (a 4-scene / 4-second
    fleet, one recording per site type); ``quick`` is the CI smoke
    configuration; tests construct tiny ad-hoc profiles directly.
    """

    name: str = "full"
    scenes: int = 4
    duration_s: float = 4.0
    filter_events: int = 200_000
    filter_scalar_events: int = 20_000
    serving_sensors: int = 4
    seed: int = 0


FULL_PROFILE = BenchProfile()
QUICK_PROFILE = BenchProfile(
    name="quick",
    scenes=3,
    duration_s=1.5,
    filter_events=60_000,
    filter_scalar_events=8_000,
    serving_sensors=2,
)


def timed(fn: Callable[[], object]) -> float:
    """Wall-clock seconds of one call (the scenarios size their own work)."""
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def calibrate() -> Dict[str, float]:
    """Machine-speed score from a fixed NumPy + interpreter workload.

    The event path spends its time in exactly these two regimes — NumPy
    kernels over ~1M-element arrays and tight Python loops — so the summed
    time of a fixed dose of each is a serviceable single-number proxy for
    "how fast would this machine run the benchmark".  ``score`` is the
    reciprocal: higher is faster.  Throughputs divided by ``score`` are
    comparable across machines to well within the regression tolerance.
    """
    array = np.arange(1_000_000, dtype=np.float64)
    started = time.perf_counter()
    for _ in range(5):
        float((array * 1.000001 + 0.5).sum())
    numpy_s = time.perf_counter() - started

    started = time.perf_counter()
    accumulator = 0
    for value in range(300_000):
        accumulator += value & 7
    python_s = time.perf_counter() - started
    return {
        "numpy_s": numpy_s,
        "python_s": python_s,
        "score": 1.0 / (numpy_s + python_s),
    }


def build_report(
    profile,
    scenario_results: Dict[str, Dict[str, float]],
    calibration: Dict[str, float],
    benchmark: str = "event_path",
) -> dict:
    """Assemble the JSON-serializable report document.

    ``profile`` is any frozen dataclass of workload sizes (the event-path
    :class:`BenchProfile` or the serving-scale profile) — only its
    ``name`` and field dict enter the report.
    """
    return {
        "benchmark": benchmark,
        "version": REPORT_VERSION,
        "profile": profile.name,
        "config": asdict(profile),
        "calibration": calibration,
        "scenarios": scenario_results,
    }


def compare_reports(
    current: dict, baseline: dict, tolerance: float = 0.30
) -> List[Comparison]:
    """Compare a fresh report against a committed baseline.

    For every scenario present in both reports:

    * every ``speedup_vs_*`` metric (``speedup_vs_scalar``,
      ``speedup_vs_thread``, ...) is compared raw (each is a same-machine
      ratio of two legs timed back to back) — but gated at *twice* the
      tolerance, because the two legs weight interpreter, NumPy and
      scheduler time differently and that balance shifts between CPUs;
      the doubled margin still catches an architectural regression
      (de-vectorization, a process hub degrading to thread-hub behaviour
      — both drop the ratio several-fold) without flaking on hardware
      differences;
    * the scenario's ``primary`` throughput metric is compared after
      normalizing both sides by their own calibration score.

    A metric regresses when it falls below ``baseline * (1 - tolerance)``
    (throughput) or ``baseline * (1 - min(0.9, 2 * tolerance))``
    (speedups) — both are the shared
    :func:`~repro.bench.compare.compare_metric` with direction ``"up"``
    and a purely relative margin.  Scenarios or metrics missing from
    either side are skipped here — the check gates regressions; coverage
    is :func:`missing_scenarios`' job (and the CLI treats an empty
    comparison under ``--check`` as an error).
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    speedup_tolerance = min(0.9, 2.0 * tolerance)
    current_score = float(current.get("calibration", {}).get("score", 0.0))
    baseline_score = float(baseline.get("calibration", {}).get("score", 0.0))
    comparisons: List[Comparison] = []
    for name, metrics in current.get("scenarios", {}).items():
        base_metrics = baseline.get("scenarios", {}).get(name)
        if not base_metrics:
            continue
        for metric_name in sorted(metrics):
            if not metric_name.startswith("speedup_vs_"):
                continue
            if metric_name not in base_metrics:
                continue
            base = float(base_metrics[metric_name])
            if base > 0:
                comparisons.append(
                    compare_metric(
                        scenario=name,
                        metric=metric_name,
                        current=float(metrics[metric_name]),
                        baseline=base,
                        tolerance=speedup_tolerance,
                        direction="up",
                    )
                )
        primary = metrics.get("primary")
        if (
            primary
            and primary in metrics
            and primary in base_metrics
            and current_score > 0
            and baseline_score > 0
        ):
            base = float(base_metrics[primary]) / baseline_score
            if base > 0:
                comparisons.append(
                    compare_metric(
                        scenario=name,
                        metric=primary,
                        current=float(metrics[primary]) / current_score,
                        baseline=base,
                        tolerance=tolerance,
                        direction="up",
                        normalized=True,
                    )
                )
    return comparisons


def missing_scenarios(current: dict, baseline: dict) -> List[str]:
    """Baseline scenarios absent from the current report, in baseline order.

    These make ``--check`` fail: a renamed or dropped scenario silently
    shrinks the gate's coverage otherwise.
    """
    reported = current.get("scenarios", {})
    return [name for name in baseline.get("scenarios", {}) if name not in reported]


def load_report(path: str) -> Optional[dict]:
    """Load a baseline report, or ``None`` when the file does not exist."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def dump_report(report: dict, path: str) -> None:
    """Write a report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
