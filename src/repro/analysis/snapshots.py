"""Snapshot/restore completeness checker (rule SNAP001).

Session migration (PR 8) and the scenario-matrix determinism gates (PR 6)
both depend on the same convention: every piece of mutable per-instance
state that evolves while events flow must round-trip through the class's
snapshot/restore pair.  A field added to ``step()`` but forgotten in
``snapshot()`` does not fail any unit test — it silently changes results
after a migration, which is exactly the class of bug a human reviewer
misses.

The rule finds classes that expose a snapshot-style method
(``snapshot``/``export_migration``) *and* a restore-style method
(``restore``/``restore_migration``) and reports every mutable attribute —
one assigned, augmented, subscript-stored, or mutated via a known container
method (``append``, ``update``, ...) outside ``__init__`` — that is not
mentioned in at least one method of each side.  One level of local
aliasing is tracked, so ``stamps = self._last_timestamp; stamps[y, x] = t``
still counts as a mutation of ``_last_timestamp``.  Trackers, filters and
the framer are checkpointed as deep copies and have no pair to check; the
pairs left are the pipeline's (``EbbiotPipeline``, whose counters sit next
to the backend copy) and the session's migration envelope.

Attributes whose names mark them as non-state (locks, callbacks,
configuration captured in ``__init__``) are skipped by construction: only
attributes mutated *after* construction are considered state.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.engine import rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.index import CodeIndex

SNAPSHOT_METHODS = {"snapshot", "export_migration"}
RESTORE_METHODS = {"restore", "restore_migration"}

#: Methods whose attribute writes are construction, not evolving state.
CONSTRUCTION_METHODS = {"__init__", "__post_init__"}

#: Container methods that mutate their receiver.
MUTATOR_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popleft",
    "remove",
    "setdefault",
    "update",
    "fill",
}

#: Default scan scope on the real tree: the stateful pipeline layers.
STATEFUL_PREFIXES = ("repro.core", "repro.events", "repro.trackers", "repro.serving")


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mentioned_attrs(funcs: Sequence[ast.AST]) -> Set[str]:
    """Every ``self.X`` reference (any context) in the given methods."""
    found: Set[str] = set()
    for func in funcs:
        for node in ast.walk(func):
            attr = _self_attr(node)
            if attr is not None:
                found.add(attr)
    return found


def _mutated_attrs(
    func: ast.AST, aliases: Dict[str, str]
) -> Dict[str, int]:
    """Attributes this method mutates, with the first mutation line."""
    mutated: Dict[str, int] = {}

    def note(attr: Optional[str], line: int) -> None:
        if attr is not None and attr not in mutated:
            mutated[attr] = line

    def target_attr(target: ast.expr) -> Optional[str]:
        attr = _self_attr(target)
        if attr is not None:
            return attr
        if isinstance(target, ast.Subscript):
            inner = _self_attr(target.value)
            if inner is not None:
                return inner
            if isinstance(target.value, ast.Name):
                return aliases.get(target.value.id)
        return None

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            # First pass of alias collection happens before this walk, but
            # re-binding inside loops is caught here too.
            for target in node.targets:
                if isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        note(target_attr(element), node.lineno)
                else:
                    note(target_attr(target), node.lineno)
        elif isinstance(node, ast.AugAssign):
            note(target_attr(node.target), node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATOR_METHODS:
                attr = _self_attr(node.func.value)
                if attr is None and isinstance(node.func.value, ast.Name):
                    attr = aliases.get(node.func.value.id)
                note(attr, node.lineno)
    return mutated


def _local_aliases(func: ast.AST) -> Dict[str, str]:
    """One-level ``local = self.attr`` bindings in a method."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            attr = _self_attr(node.value)
            if attr is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    aliases[target.id] = attr
    return aliases


@rule(
    "SNAP001",
    "snapshot/restore completeness",
    "mutable pipeline state round-trips through snapshot/restore (PR 6/8)",
)
def check_snapshot_completeness(index: CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    modules: List = []
    for prefix in STATEFUL_PREFIXES:
        modules.extend(index.iter_modules(prefix))
    if not modules:
        modules = list(index.iter_modules())
    for module in modules:
        for cls in module.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {
                node.name: node
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            snap_side = [methods[m] for m in SNAPSHOT_METHODS if m in methods]
            restore_side = [methods[m] for m in RESTORE_METHODS if m in methods]
            if not snap_side or not restore_side:
                continue
            snap_mentions = _mentioned_attrs(snap_side)
            restore_mentions = _mentioned_attrs(restore_side)
            skip = (
                SNAPSHOT_METHODS
                | RESTORE_METHODS
                | CONSTRUCTION_METHODS
            )
            mutable: Dict[str, int] = {}
            for name, func in methods.items():
                if name in skip:
                    continue
                aliases = _local_aliases(func)
                for attr, line in _mutated_attrs(func, aliases).items():
                    if attr.startswith("__"):
                        continue
                    mutable.setdefault(attr, line)
            for attr in sorted(mutable):
                in_snap = attr in snap_mentions
                in_restore = attr in restore_mentions
                if in_snap and in_restore:
                    continue
                if not in_snap and not in_restore:
                    missing = "snapshot and restore"
                elif not in_snap:
                    missing = "snapshot"
                else:
                    missing = "restore"
                findings.append(
                    Finding(
                        rule="SNAP001",
                        severity=Severity.ERROR,
                        file=module.rel,
                        line=mutable[attr],
                        message=(
                            f"mutable attribute '{attr}' of {cls.name} is "
                            f"missing from the {missing} side of the "
                            "snapshot/restore pair"
                        ),
                        suggestion=(
                            f"carry '{attr}' through "
                            f"{'/'.join(sorted(m.name for m in snap_side))} and "
                            f"{'/'.join(sorted(m.name for m in restore_side))}, "
                            "or baseline it with the reason it is excluded"
                        ),
                    )
                )
    return findings
