"""Fast-path parity contract checker (rules PARITY001/PARITY002).

PR 4's optimization contract: every vectorized hot path keeps the scalar
reference implementation alive behind the ``repro.utils.fastpath`` gate,
and the equivalence of the two is asserted bit-for-bit by
``tests/test_event_path_parity.py``.  The contract has two mechanical
halves this rule pair checks:

* **PARITY001** — a module that consults :func:`scalar_forced` (i.e. one
  that *has* a gated fast path) must be exercised by the parity harness:
  its dotted module name has to appear in the committed parity test file.
  A new gated module that nobody wired into the harness is a fast path
  with no equivalence proof.
* **PARITY002** — a class that exposes a ``vectorized`` switch (the
  naming convention for a per-instance dual-path pick, e.g. a
  ``Filter(vectorized=False)`` argument) must live in a module that
  consults :func:`scalar_forced`.  A ``vectorized`` flag without the
  global gate means ``REPRO_FORCE_SCALAR=1`` silently stops covering that
  class, breaking the bench suite's ``speedup_vs_scalar`` methodology.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.engine import rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.index import CodeIndex, ModuleInfo

GATE_FUNCTION = "scalar_forced"
SWITCH_ATTRIBUTE = "vectorized"


def _defines_gate(module: ModuleInfo) -> bool:
    return any(
        isinstance(node, ast.FunctionDef) and node.name == GATE_FUNCTION
        for node in module.tree.body
    )


def _calls_gate(module: ModuleInfo) -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == GATE_FUNCTION:
                return True
            if isinstance(func, ast.Attribute) and func.attr == GATE_FUNCTION:
                return True
    return False


def _vectorized_switch_line(cls: ast.ClassDef) -> Optional[int]:
    """Line where the class declares a ``vectorized`` switch, if it does."""
    for node in ast.walk(cls):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.target.id == SWITCH_ATTRIBUTE:
                return node.lineno
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == SWITCH_ATTRIBUTE
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return node.lineno
    return None


@rule(
    "PARITY001",
    "gated fast path without parity coverage",
    "every scalar_forced() caller is exercised by the parity harness (PR 4)",
)
def check_parity_coverage(index: CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    parity_text = index.parity_test_text
    for module in index.iter_modules():
        if _defines_gate(module) or not _calls_gate(module):
            continue
        if parity_text is None:
            findings.append(
                Finding(
                    rule="PARITY001",
                    severity=Severity.ERROR,
                    file=module.rel,
                    line=1,
                    message=(
                        f"module {module.name} gates a fast path on "
                        f"{GATE_FUNCTION}() but the tree has no parity "
                        "harness (tests/test_event_path_parity.py)"
                    ),
                    suggestion="add the parity test file and cover the module",
                )
            )
            continue
        if module.name not in parity_text:
            findings.append(
                Finding(
                    rule="PARITY001",
                    severity=Severity.ERROR,
                    file=module.rel,
                    line=1,
                    message=(
                        f"module {module.name} gates a fast path on "
                        f"{GATE_FUNCTION}() but is never referenced by "
                        "tests/test_event_path_parity.py"
                    ),
                    suggestion=(
                        "add a scalar-vs-vectorized equivalence case for it "
                        "to the parity harness"
                    ),
                )
            )
    return findings


@rule(
    "PARITY002",
    "vectorized switch without scalar gate",
    "every 'vectorized' dual-path class honours REPRO_FORCE_SCALAR (PR 4)",
)
def check_vectorized_gate(index: CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    for module in index.iter_modules():
        if _defines_gate(module):
            continue
        gated = _calls_gate(module)
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            line = _vectorized_switch_line(node)
            if line is not None and not gated:
                findings.append(
                    Finding(
                        rule="PARITY002",
                        severity=Severity.ERROR,
                        file=module.rel,
                        line=line,
                        message=(
                            f"class {node.name} exposes a '{SWITCH_ATTRIBUTE}' "
                            f"switch but its module never consults "
                            f"{GATE_FUNCTION}(), so REPRO_FORCE_SCALAR cannot "
                            "pin it to the reference path"
                        ),
                        suggestion=(
                            "include scalar_forced() in the dispatch condition "
                            "next to the instance switch"
                        ),
                    )
                )
    return findings
