"""Concurrency analyzers for the serving layer (rules CONC001–CONC004).

The serving layer's threading discipline is conventions, not types: locks
are plain attributes, lock *scopes* are ``with`` blocks or
``acquire``/``release`` pairs, and the rules of PR 8's hardening pass
(map flips only under both shard locks, no migration evaluation on the
submit path, cursor publication under the ring lock) live in docstrings.
These analyzers recover enough of that structure from the ASTs to check
the mechanical parts:

* **CONC001** — lock-order inversions: a per-class lock-acquisition graph
  (edges "acquired B while holding A", including one level of
  interprocedural summaries for helpers like ``_acquire_queue`` that
  return a held lock) must be cycle-free.  Acquiring two locks from the
  same lock *list* is reported as a warning — it is deadlock-free only
  when the acquisition order is canonical (the hubs sort shard indices).
* **CONC002** — unguarded shared state: an attribute mutated outside any
  lock scope while the same attribute is read or written under a lock
  elsewhere in the class, plus read-modify-write (``+=``) of attributes
  outside any lock in classes that spawn threads or processes.
* **CONC003** — blocking calls (``put``/``join``/``recv``/``sleep``/
  ``select``/``wait``/``send``) made while holding a lock: every such
  call extends the lock's critical section by an unbounded wait and must
  be a deliberate, documented decision (baseline) or a bug.
* **CONC004** — known-blocking hub calls reachable from ``async def``
  coroutines: the asyncio front door's event loop must never park in
  ``close_sensor``/``register``/``metrics_text``-class hub calls; they
  belong behind ``asyncio.to_thread``.

The lock-scope model is linear (statements in source order, ``with``
nesting, ``acquire`` held until a ``release`` statement) — deliberately
simpler than real control flow, and accurate for the straight-line
critical sections this codebase writes.  Rules scan ``repro.serving`` when
present and the whole tree otherwise (which is how the fixture tests
drive them).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.index import CodeIndex, ModuleInfo

#: Constructors whose result makes an attribute a lock.
LOCK_FACTORIES = {"Lock", "RLock"}

#: Constructors that make a class a thread/process spawner.
SPAWN_FACTORIES = {"Thread", "Process"}

#: Method names treated as potentially blocking when called under a lock.
BLOCKING_METHODS = {
    "put",
    "join",
    "recv",
    "recv_bytes",
    "sleep",
    "select",
    "wait",
    "send",
    "accept",
    "connect",
}

#: Attribute-mutating method names (``self.x.append(...)`` counts as a
#: mutation of ``x``).
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
}

#: Hub API calls an asyncio coroutine must not make directly: each one can
#: block on queue drain, worker round trips, or a migration hand-off.
HUB_BLOCKING_METHODS = {
    "close_sensor",
    "register",
    "submit",
    "migrate_sensor",
    "metrics_text",
    "telemetry_dict",
    "chrome_trace",
    "merged_metrics",
    "pause_shard",
    "resume_shard",
    "stop",
}

#: Methods whose attribute mutations are not treated as "shared state
#: mutated outside a lock": they run before the worker threads exist or
#: after they are joined.
LIFECYCLE_METHODS = {"__init__", "__post_init__", "__del__", "start", "stop"}


def _calls_factory(node: ast.AST, names: Set[str]) -> bool:
    """Whether any call in ``node`` constructs one of ``names``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Name) and func.id in names:
                return True
            if isinstance(func, ast.Attribute) and func.attr in names:
                return True
    return False


def _self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@dataclass
class LockUse:
    """One resolved lock expression: which attribute, and whether it came
    through a subscript (an element of a lock list)."""

    attr: str
    group: bool
    line: int


@dataclass
class MethodSummary:
    """What one method does with the class's locks (interprocedural seed)."""

    acquired: Set[str] = field(default_factory=set)
    leaked: Set[str] = field(default_factory=set)  # held at some return


@dataclass
class ClassReport:
    """Everything the rules need about one class's lock behaviour."""

    name: str
    lock_attrs: Set[str]
    spawns: bool
    edges: List[Tuple[str, str, int]] = field(default_factory=list)
    double_acquires: List[LockUse] = field(default_factory=list)
    blocking_under_lock: List[Tuple[str, str, int]] = field(default_factory=list)
    mutations: List[Tuple[str, bool, int, str, str]] = field(default_factory=list)
    loads_under_lock: Set[str] = field(default_factory=set)
    load_lines: Dict[str, int] = field(default_factory=dict)


class _FunctionWalker:
    """Linear lock-scope walk of one method body."""

    def __init__(
        self,
        report: ClassReport,
        method: str,
        summaries: Optional[Dict[str, MethodSummary]],
    ) -> None:
        self.report = report
        self.method = method
        self.summaries = summaries or {}
        self.held: List[str] = []
        self.aliases: Dict[str, str] = {}  # local name -> self attribute
        self.summary = MethodSummary()

    # -- lock expression resolution ------------------------------------------------------

    def _resolve_lock(self, node: ast.expr) -> Optional[LockUse]:
        attr = _self_attr(node)
        if attr is not None and attr in self.report.lock_attrs:
            return LockUse(attr=attr, group=False, line=node.lineno)
        if isinstance(node, ast.Subscript):
            attr = _self_attr(node.value)
            if attr is not None and attr in self.report.lock_attrs:
                return LockUse(attr=attr, group=True, line=node.lineno)
        if isinstance(node, ast.Name) and node.id in self.aliases:
            aliased = self.aliases[node.id]
            if aliased in self.report.lock_attrs:
                return LockUse(attr=aliased, group=True, line=node.lineno)
        return None

    def _acquire(self, use: LockUse) -> None:
        if use.attr in self.held:
            self.report.double_acquires.append(use)
        for holding in self.held:
            if holding != use.attr:
                self.report.edges.append((holding, use.attr, use.line))
        self.held.append(use.attr)
        self.summary.acquired.add(use.attr)

    def _release(self, attr: str) -> None:
        if attr in self.held:
            self.held.remove(attr)

    # -- per-statement bookkeeping -------------------------------------------------------

    def _record_accesses(self, stmt: ast.stmt) -> None:
        """Scan a statement for attribute loads, mutations and blocking calls."""
        in_lifecycle = self.method in LIFECYCLE_METHODS
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                kind = "augassign" if isinstance(node, ast.AugAssign) else "assign"
                targets = (
                    [node.target] if isinstance(node, ast.AugAssign) else node.targets
                )
                for target in targets:
                    self._record_target(target, kind, node.lineno, in_lifecycle)
            elif isinstance(node, ast.Call):
                self._record_call(node, in_lifecycle)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attr = _self_attr(node)
                if attr is not None and self.held:
                    self.report.loads_under_lock.add(attr)
                    self.report.load_lines.setdefault(attr, node.lineno)

    def _mutated_attr(self, node: ast.expr) -> Optional[str]:
        """The self attribute a store target (or receiver) mutates, if any."""
        attr = _self_attr(node)
        if attr is not None:
            return attr
        if isinstance(node, ast.Subscript):
            inner = _self_attr(node.value)
            if inner is not None:
                return inner
            if isinstance(node.value, ast.Name) and node.value.id in self.aliases:
                return self.aliases[node.value.id]
        if isinstance(node, (ast.Tuple, ast.List)):
            return None
        return None

    def _record_target(
        self, target: ast.expr, kind: str, line: int, in_lifecycle: bool
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, kind, line, in_lifecycle)
            return
        attr = self._mutated_attr(target)
        if attr is None or in_lifecycle:
            return
        self.report.mutations.append(
            (attr, bool(self.held), line, kind, self.method)
        )

    def _record_call(self, call: ast.Call, in_lifecycle: bool) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in ("acquire", "release"):
            return  # handled structurally
        if func.attr in MUTATOR_METHODS and not in_lifecycle:
            attr = _self_attr(func.value)
            if attr is None and isinstance(func.value, ast.Name):
                attr = self.aliases.get(func.value.id)
            if attr is not None:
                self.report.mutations.append(
                    (attr, bool(self.held), call.lineno, "call", self.method)
                )
        if func.attr in BLOCKING_METHODS and self.held:
            self.report.blocking_under_lock.append(
                (
                    "+".join(dict.fromkeys(self.held)),
                    f"{ast.unparse(func)}() in {self.report.name}.{self.method}",
                    call.lineno,
                )
            )

    # -- statement dispatch --------------------------------------------------------------

    def walk(self, body: Sequence[ast.stmt]) -> MethodSummary:
        self._walk_stmts(body)
        self.summary.leaked.update(self.held)
        return self.summary

    def _walk_stmts(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _called_summary(self, value: ast.expr) -> Optional[MethodSummary]:
        """Summary of a directly-called same-class method, if we have one."""
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            name = _self_attr(value.func)
            if name is not None:
                return self.summaries.get(name)
        return None

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                carrier = ast.Expr(value=item.context_expr)
                ast.copy_location(carrier, item.context_expr)
                self._record_accesses(carrier)
            uses = []
            for item in stmt.items:
                use = self._resolve_lock(item.context_expr)
                if use is not None:
                    self._acquire(use)
                    uses.append(use)
            self._walk_stmts(stmt.body)
            for use in reversed(uses):
                self._release(use.attr)
            return
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            # Alias tracking: ``lock = self._queue_locks[shard]`` and
            # ``stamps = self._last_timestamp`` both bind a local to an attr.
            alias_source: Optional[str] = None
            if isinstance(value, ast.Subscript):
                alias_source = _self_attr(value.value)
            else:
                alias_source = _self_attr(value)
            if alias_source is not None:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.aliases[target.id] = alias_source
            summary = self._called_summary(value)
            if summary is not None and summary.leaked:
                # ``shard, lock = self._acquire_queue(...)`` hands back a
                # held lock: model it as acquired here, released by the
                # later ``lock.release()``.
                for attr in sorted(summary.leaked):
                    self._acquire(LockUse(attr=attr, group=True, line=stmt.lineno))
                for target in stmt.targets:
                    names = (
                        [element for element in target.elts]
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for name in names:
                        if isinstance(name, ast.Name):
                            for attr in summary.leaked:
                                self.aliases[name.id] = attr
            self._interprocedural_edges(stmt)
            self._record_accesses(stmt)
            return
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if isinstance(call.func, ast.Attribute):
                if call.func.attr == "acquire":
                    use = self._resolve_lock(call.func.value)
                    if use is not None:
                        self._acquire(use)
                        return
                if call.func.attr == "release":
                    use = self._resolve_lock(call.func.value)
                    if use is not None:
                        self._release(use.attr)
                        return
            summary = self._called_summary(call)
            if summary is not None and summary.leaked:
                for attr in sorted(summary.leaked):
                    self._acquire(LockUse(attr=attr, group=True, line=stmt.lineno))
            self._interprocedural_edges(stmt)
            self._record_accesses(stmt)
            return
        if isinstance(stmt, ast.Return):
            self.summary.leaked.update(self.held)
            self._record_accesses(stmt)
            return
        if isinstance(stmt, (ast.If,)):
            self._record_accesses_shallow(stmt)
            self._walk_stmts(stmt.body)
            self._walk_stmts(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.While)):
            self._record_accesses_shallow(stmt)
            self._walk_stmts(stmt.body)
            self._walk_stmts(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            self._walk_stmts(stmt.body)
            for handler in stmt.handlers:
                self._walk_stmts(handler.body)
            self._walk_stmts(stmt.orelse)
            self._walk_stmts(stmt.finalbody)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions run later, under their own scopes
        self._record_accesses(stmt)

    def _record_accesses_shallow(self, stmt: ast.stmt) -> None:
        """Record only the header expression of a compound statement."""
        header: Optional[ast.expr] = None
        if isinstance(stmt, (ast.If, ast.While)):
            header = stmt.test
        elif isinstance(stmt, ast.For):
            header = stmt.iter
        if header is None:
            return
        carrier = ast.Expr(value=header)
        ast.copy_location(carrier, stmt)
        self._record_accesses(carrier)

    def _interprocedural_edges(self, stmt: ast.stmt) -> None:
        """Edges from held locks to locks a called same-class method takes."""
        if not self.held:
            return
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name = _self_attr(node.func)
                if name is None:
                    continue
                summary = self.summaries.get(name)
                if summary is None:
                    continue
                for acquired in summary.acquired:
                    for holding in self.held:
                        if holding != acquired:
                            self.report.edges.append(
                                (holding, acquired, node.lineno)
                            )


def analyze_class(cls: ast.ClassDef) -> ClassReport:
    """Two-pass lock analysis of one class."""
    lock_attrs: Set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and _calls_factory(node.value, LOCK_FACTORIES):
            targets = node.targets
        elif (
            isinstance(node, ast.AnnAssign)
            and node.value is not None
            and _calls_factory(node.value, LOCK_FACTORIES)
        ):
            targets = [node.target]
        else:
            continue
        for target in targets:
            attr = _self_attr(target)
            if attr is not None:
                lock_attrs.add(attr)
    report = ClassReport(
        name=cls.name,
        lock_attrs=lock_attrs,
        spawns=_calls_factory(cls, SPAWN_FACTORIES),
    )
    methods = [
        node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    summaries: Dict[str, MethodSummary] = {}
    for method in methods:
        walker = _FunctionWalker(ClassReport(cls.name, lock_attrs, False), method.name, None)
        summaries[method.name] = walker.walk(method.body)
    for method in methods:
        walker = _FunctionWalker(report, method.name, summaries)
        walker.walk(method.body)
    return report


def _iter_target_modules(index: CodeIndex) -> List[ModuleInfo]:
    serving = list(index.iter_modules("repro.serving"))
    return serving if serving else list(index.iter_modules())


def _iter_classes(module: ModuleInfo) -> List[ast.ClassDef]:
    return [node for node in module.tree.body if isinstance(node, ast.ClassDef)]


@rule(
    "CONC001",
    "lock-order inversion",
    "per-class lock acquisition order is a DAG (PR 8 migration interlock)",
)
def check_lock_order(index: CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    for module in _iter_target_modules(index):
        for cls in _iter_classes(module):
            report = analyze_class(cls)
            if not report.lock_attrs:
                continue
            edges: Dict[Tuple[str, str], int] = {}
            for source, target, line in report.edges:
                edges.setdefault((source, target), line)
            for (source, target), line in sorted(edges.items()):
                reverse = edges.get((target, source))
                if reverse is not None and source < target:
                    findings.append(
                        Finding(
                            rule="CONC001",
                            severity=Severity.ERROR,
                            file=module.rel,
                            line=line,
                            message=(
                                f"lock-order inversion in {cls.name}: "
                                f"'{source}' is taken before '{target}' "
                                f"(line {line}) but '{target}' before "
                                f"'{source}' (line {reverse})"
                            ),
                            suggestion=(
                                "pick one global order for the two locks and "
                                "acquire them in that order on every path"
                            ),
                        )
                    )
            for use in report.double_acquires:
                findings.append(
                    Finding(
                        rule="CONC001",
                        severity=Severity.WARNING if use.group else Severity.ERROR,
                        file=module.rel,
                        line=use.line,
                        message=(
                            f"{cls.name} acquires lock '{use.attr}' while "
                            "already holding it"
                            + (
                                " (two members of the same lock list — "
                                "deadlock-free only if acquisition order is "
                                "canonical)"
                                if use.group
                                else " (self-deadlock for a non-reentrant Lock)"
                            )
                        ),
                        suggestion=(
                            "sort the lock indices before acquiring"
                            if use.group
                            else "use an RLock or restructure the critical section"
                        ),
                    )
                )
    return findings


@rule(
    "CONC002",
    "unguarded shared state",
    "state touched under a lock is never mutated outside one (PR 2/8 hubs)",
)
def check_unguarded_state(index: CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    for module in _iter_target_modules(index):
        for cls in _iter_classes(module):
            report = analyze_class(cls)
            if not report.lock_attrs:
                continue
            mutated_under: Set[str] = set()
            reported: Set[str] = set()
            for attr, under, _, _, _ in report.mutations:
                if under:
                    mutated_under.add(attr)
            guarded = mutated_under | report.loads_under_lock
            for attr, under, line, kind, method in report.mutations:
                if under or attr in reported or attr in report.lock_attrs:
                    continue
                if attr in guarded:
                    reported.add(attr)
                    findings.append(
                        Finding(
                            rule="CONC002",
                            severity=Severity.ERROR,
                            file=module.rel,
                            line=line,
                            message=(
                                f"attribute '{attr}' of {cls.name} is mutated "
                                f"outside any lock in {method}() but accessed "
                                "under a lock elsewhere in the class"
                            ),
                            suggestion=(
                                "take the same lock around this mutation, or "
                                "document the single-writer ownership in the "
                                "analysis baseline"
                            ),
                        )
                    )
                elif kind == "augassign" and report.spawns:
                    reported.add(attr)
                    findings.append(
                        Finding(
                            rule="CONC002",
                            severity=Severity.ERROR,
                            file=module.rel,
                            line=line,
                            message=(
                                f"read-modify-write of '{attr}' in "
                                f"{cls.name}.{method}() outside any lock in a "
                                "class that spawns workers (lost-update race)"
                            ),
                            suggestion="guard the increment with an existing lock",
                        )
                    )
    return findings


@rule(
    "CONC003",
    "blocking call under lock",
    "critical sections never wait on queues/pipes/sleeps (PR 8 submit path)",
)
def check_blocking_under_lock(index: CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    for module in _iter_target_modules(index):
        for cls in _iter_classes(module):
            report = analyze_class(cls)
            if not report.lock_attrs:
                continue
            for held, call, line in report.blocking_under_lock:
                findings.append(
                    Finding(
                        rule="CONC003",
                        severity=Severity.ERROR,
                        file=module.rel,
                        line=line,
                        message=(
                            f"potentially blocking call {call} while holding "
                            f"lock '{held}'"
                        ),
                        suggestion=(
                            "move the call outside the critical section, or "
                            "baseline it with the reason the wait is bounded"
                        ),
                    )
                )
    return findings


def _mentions_hub(node: ast.expr) -> bool:
    """Whether a call receiver expression refers to a hub object."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id == "hub":
            return True
        if isinstance(child, ast.Attribute) and child.attr == "hub":
            return True
    return False


@rule(
    "CONC004",
    "blocking hub call in coroutine",
    "the asyncio front door never blocks its event loop (PR 8 aioserver)",
)
def check_async_blocking(index: CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    for module in _iter_target_modules(index):
        for func in ast.walk(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            awaited = {
                id(node.value)
                for node in ast.walk(func)
                if isinstance(node, ast.Await)
            }
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                ):
                    continue
                attr = node.func.attr
                receiver = node.func.value
                if attr in HUB_BLOCKING_METHODS and _mentions_hub(receiver):
                    findings.append(
                        Finding(
                            rule="CONC004",
                            severity=Severity.ERROR,
                            file=module.rel,
                            line=node.lineno,
                            message=(
                                f"coroutine {func.name}() calls blocking hub "
                                f"method {ast.unparse(node.func)}() on the "
                                "event loop"
                            ),
                            suggestion=(
                                "wrap it: await asyncio.to_thread("
                                f"{ast.unparse(node.func)}, ...)"
                            ),
                        )
                    )
                elif (
                    attr == "sleep"
                    and isinstance(receiver, ast.Name)
                    and receiver.id == "time"
                ):
                    findings.append(
                        Finding(
                            rule="CONC004",
                            severity=Severity.ERROR,
                            file=module.rel,
                            line=node.lineno,
                            message=(
                                f"coroutine {func.name}() calls time.sleep() "
                                "on the event loop"
                            ),
                            suggestion="use await asyncio.sleep(...)",
                        )
                    )
                elif (
                    attr in ("wait", "join", "get")
                    and id(node) not in awaited
                    and _mentions_hub(receiver)
                ):
                    findings.append(
                        Finding(
                            rule="CONC004",
                            severity=Severity.ERROR,
                            file=module.rel,
                            line=node.lineno,
                            message=(
                                f"coroutine {func.name}() makes un-awaited "
                                f"blocking call {ast.unparse(node.func)}()"
                            ),
                            suggestion="hand it to a worker thread",
                        )
                    )
    return findings
