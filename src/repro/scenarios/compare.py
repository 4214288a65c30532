"""Quality-regression compare for scenario-matrix reports.

The quality counterpart of :func:`repro.bench.harness.compare_reports`,
built on the same shared :func:`repro.bench.compare.compare_metric`:

* **Quality metrics** (MOTA, MOTP, precision, recall) are higher-is-better
  and deterministic, and compared raw with ``floor=1.0`` — the tolerance
  is an *absolute* budget in metric units, which keeps the gate sane for
  negative-MOTA baselines (a diverging tracker regime is still a valid
  baseline to hold the line on) and for baselines near zero.
* **Latency** (``latency_ms_per_frame``) is lower-is-better and
  wall-clock, so both sides are normalised by their report's
  :func:`~repro.bench.harness.calibrate` machine-speed score (multiplying
  by the score cancels machine speed) and gated with a separate, looser
  relative tolerance.

Unlike the throughput gate, a cell present in the baseline but missing
from the current report is *reported* (:func:`missing_cells`) and treated
as an error by the CLI's ``--check``: silently dropping a scenario from
the matrix must not turn the gate green.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.compare import Comparison, compare_metric
from repro.scenarios.matrix import SUITE_NAME

#: Deterministic higher-is-better cell metrics and the margin floor each
#: is gated with (all are [-inf, 1]-scaled, so the floor makes the
#: tolerance an absolute budget).
QUALITY_METRICS: Dict[str, float] = {
    "mota": 1.0,
    "motp": 1.0,
    "precision": 1.0,
    "recall": 1.0,
}

#: The wall-clock lower-is-better cell metric, compared normalised.
LATENCY_METRIC = "latency_ms_per_frame"


def _ensure_quality_report(report: dict, label: str) -> None:
    suite = report.get("suite")
    if suite != SUITE_NAME:
        raise ValueError(
            f"{label} is not a scenario-matrix report (suite={suite!r}); "
            f"expected suite={SUITE_NAME!r}"
        )


def missing_cells(current: dict, baseline: dict) -> List[str]:
    """Baseline cells absent from the current report, in baseline order.

    These make ``--check`` fail: a renamed or dropped scenario silently
    shrinks the gate's coverage otherwise.
    """
    current_cells = current.get("cells", {})
    return [key for key in baseline.get("cells", {}) if key not in current_cells]


def compare_quality_reports(
    current: dict,
    baseline: dict,
    tolerance: float = 0.05,
    latency_tolerance: float = 1.0,
) -> List[Comparison]:
    """Compare a fresh matrix report against a committed quality baseline.

    Parameters
    ----------
    current, baseline:
        Reports produced by :func:`repro.scenarios.matrix.run_matrix`.
    tolerance:
        Absolute budget for the deterministic quality metrics (0.05 means
        "MOTA may drop by at most 0.05"); see :data:`QUALITY_METRICS`.
    latency_tolerance:
        Relative margin for the normalised latency comparison.  Loose by
        default (1.0 = latency may double after machine-speed
        normalisation): the calibration proxy is good to tens of percent,
        and the gate is for order-of-magnitude blowups, not jitter.

    Returns comparisons for every metric present in both sides of every
    shared cell, in current-report order.  Cells only in the baseline are
    *not* silently skipped at the CLI level — see :func:`missing_cells`.
    """
    _ensure_quality_report(current, "current report")
    _ensure_quality_report(baseline, "baseline")
    if tolerance < 0 or latency_tolerance < 0:
        raise ValueError("tolerances must be non-negative")
    current_score = float(current.get("calibration", {}).get("score", 0.0))
    baseline_score = float(baseline.get("calibration", {}).get("score", 0.0))
    comparisons: List[Comparison] = []
    for key, metrics in current.get("cells", {}).items():
        base_metrics = baseline.get("cells", {}).get(key)
        if not base_metrics:
            continue
        for metric, floor in QUALITY_METRICS.items():
            if metric not in metrics or metric not in base_metrics:
                continue
            comparisons.append(
                compare_metric(
                    scenario=key,
                    metric=metric,
                    current=float(metrics[metric]),
                    baseline=float(base_metrics[metric]),
                    tolerance=tolerance,
                    direction="up",
                    floor=floor,
                )
            )
        if (
            LATENCY_METRIC in metrics
            and LATENCY_METRIC in base_metrics
            and current_score > 0
            and baseline_score > 0
        ):
            # Multiplying a latency by the machine-speed score cancels the
            # machine: a 2x-slower machine halves the score and doubles
            # the latency.
            comparisons.append(
                compare_metric(
                    scenario=key,
                    metric=LATENCY_METRIC,
                    current=float(metrics[LATENCY_METRIC]) * current_score,
                    baseline=float(base_metrics[LATENCY_METRIC]) * baseline_score,
                    tolerance=latency_tolerance,
                    direction="down",
                    normalized=True,
                )
            )
    return comparisons


def regressions(comparisons: List[Comparison]) -> List[Comparison]:
    """The subset of comparisons that regressed."""
    return [c for c in comparisons if c.regressed]
