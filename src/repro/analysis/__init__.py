"""Codebase-aware static analysis (`python -m repro.analysis`).

This package is correctness tooling *for this repository*: every analyzer
encodes an invariant some earlier PR established by convention and review —
lock ordering and publication discipline in the serving layer (PR 2/8),
snapshot/restore completeness of the pipeline and session checkpoints,
the scalar-reference parity contract behind ``utils/fastpath.py`` (PR 4),
and the CLI/metrics documentation surface (PR 1/7).  Instead of trusting
each future PR's reviewer to re-check those invariants by hand, the rules
here walk the real tree's ASTs and fail CI when one breaks.

The pieces:

* :mod:`repro.analysis.index` — :class:`CodeIndex`, the parsed view of the
  tree (module ASTs, doc text, the parity-test source) every rule reads.
* :mod:`repro.analysis.engine` — the rule registry and runner; rules
  return structured :class:`~repro.analysis.findings.Finding` objects.
* :mod:`repro.analysis.findings` — findings, severities, and the committed
  suppression baseline (``ANALYSIS_baseline.json``; every entry carries a
  human reason).
* rule families: :mod:`~repro.analysis.concurrency` (CONC*),
  :mod:`~repro.analysis.snapshots` (SNAP*), :mod:`~repro.analysis.parity`
  (PARITY*), :mod:`~repro.analysis.drift` (DRIFT*), and
  :mod:`~repro.analysis.lint` (LINT*).

Typical use::

    PYTHONPATH=src python -m repro.analysis --check      # CI gate
    PYTHONPATH=src python -m repro.analysis --rule CONC003
"""

from repro.analysis.engine import RULES, Rule, run_rules
from repro.analysis.findings import (
    Baseline,
    BaselineError,
    Finding,
    Severity,
    Suppression,
    load_baseline,
)
from repro.analysis.index import CodeIndex, ModuleInfo

# Importing the rule modules registers their rules.
from repro.analysis import concurrency as _concurrency  # noqa: F401
from repro.analysis import drift as _drift  # noqa: F401
from repro.analysis import lint as _lint  # noqa: F401
from repro.analysis import parity as _parity  # noqa: F401
from repro.analysis import snapshots as _snapshots  # noqa: F401

__all__ = [
    "Baseline",
    "BaselineError",
    "CodeIndex",
    "Finding",
    "ModuleInfo",
    "RULES",
    "Rule",
    "Severity",
    "Suppression",
    "load_baseline",
    "run_rules",
]
