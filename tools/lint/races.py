"""RACE001 / RACE002: thread-affinity race detection.

The executive model gives every device a single owning thread — the
loop of control.  Peer transports may run real receive threads (task
mode), and anything those threads touch must either marshal through
the executive's inbound queue (``post_inbound``) or hold a lock.

* **RACE001** — device or executive state mutated from a function
  reachable from an rx-thread context: an attribute store, subscript
  store, or mutating container call on ``self`` (in a ``Listener`` or
  ``Executive`` subclass, or an executive part such as ``RouteTable``),
  on ``exe``/``executive``, or through ``<x>.executive``/``<x>._exe``.  Exemptions: mutations lexically
  inside a ``with <...lock...>:`` block, and ``+=``-style counter
  accumulation on device state (``rx_copies += 1`` — the transports'
  accepted stat-counter discipline, mirrored at runtime by
  ``affinity_exempt``).  Executive state gets no counter exemption:
  the loop thread owns it outright.
* **RACE002** — class-level or module-level mutable state mutated,
  unprotected, from an rx-thread-reachable function.  Shared
  registries are written at import time (main) and read from dispatch;
  any rx-thread writer races the dispatch thread *and* other readers
  of the same shared binding.

The ``sampler`` context (a thread target that walks
``sys._current_frames()`` — see :mod:`.contexts`) is scanned by both
rules exactly like ``rx-thread``, with one tightening: the sampler is
an *observer* and read-only by contract, so the ``+=`` stat-counter
pass that transport rx threads enjoy does not apply — any mutation of
device, executive or shared state from a sampler-reachable function
is flagged.  Its own plain-object tallies (sample counters on the
profiler itself) stay exempt as for any non-device object.

Both are errors: a data race does not age into acceptability.
Reachability comes from :mod:`.contexts`; functions with no classified
context (or only main/test) are never flagged — false negatives are
acceptable, false positives are rule bugs.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from tools.lint.callgraph import (
    EXECUTIVE_ATTRS,
    EXECUTIVE_NAMES,
)
from tools.lint.contexts import RX, SAMPLER
from tools.lint.violations import Violation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from tools.lint.callgraph import ProjectIndex

#: contexts whose functions get the race scan
_RACY = frozenset({RX, SAMPLER})

#: container methods that mutate their receiver in place
MUTATORS = frozenset(
    {"append", "extend", "insert", "pop", "popitem", "remove", "discard",
     "clear", "update", "setdefault", "add"}
)


def _is_lockish(expr: ast.expr) -> bool:
    """Does a with-item's context expression name a lock?"""
    for node in ast.walk(expr):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and (
                "lock" in name.lower() or "mutex" in name.lower()):
            return True
    return False


def _peel(expr: ast.expr) -> ast.expr:
    """Strip subscripts: ``self._routes[tid]`` -> ``self._routes``."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    return expr


class _Owner:
    """Classification of a mutation target's root object."""

    def __init__(self, kind: str, detail: str) -> None:
        self.kind = kind  # "self" | "executive" | "class" | "module"
        self.detail = detail


def _classify_target(
    expr: ast.expr,
    index: "ProjectIndex",
    path: str,
    local_names: frozenset[str],
) -> _Owner | None:
    expr = _peel(expr)
    if isinstance(expr, ast.Attribute):
        attr = expr.attr
        root = _peel(expr.value)
        # Walk the receiver chain looking for an executive hop:
        # exe.x, self.executive.x, pta._exe.queues ...
        chain = root
        while isinstance(chain, ast.Attribute):
            if chain.attr in EXECUTIVE_ATTRS:
                return _Owner("executive", attr)
            chain = _peel(chain.value)
        if isinstance(chain, ast.Name):
            if chain.id in EXECUTIVE_NAMES:
                return _Owner("executive", attr)
            if chain.id == "self" and root is chain:
                return _Owner("self", attr)
            if chain.id == "cls" and root is chain:
                return _Owner("class", attr)
            if (root is chain and chain.id in index.class_bases):
                return _Owner("class", f"{chain.id}.{attr}")
        return None
    if isinstance(expr, ast.Name):
        if (expr.id in index.module_state.get(path, frozenset())
                and expr.id not in local_names):
            return _Owner("module", expr.id)
    return None


class _FunctionScan:
    """Walk one rx-reachable function body tracking lock regions."""

    def __init__(self, checker: "RaceChecker", qualname: str,
                 cls: str | None, contexts: frozenset[str]) -> None:
        self.checker = checker
        self.qualname = qualname
        self.cls = cls
        self.contexts = contexts
        self.local_names: frozenset[str] = frozenset()

    def run(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        locals_: set[str] = {a.arg for a in node.args.args}
        locals_.update(a.arg for a in node.args.posonlyargs)
        locals_.update(a.arg for a in node.args.kwonlyargs)
        declared_global: set[str] = set()
        for item in ast.walk(node):
            if isinstance(item, ast.Global):
                declared_global.update(item.names)
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        locals_.add(target.id)
        self.local_names = frozenset(locals_ - declared_global)
        self._scan_block(node.body, protected=False)

    def _scan_block(self, stmts: list[ast.stmt], protected: bool) -> None:
        for stmt in stmts:
            self._scan_stmt(stmt, protected)

    def _scan_stmt(self, stmt: ast.stmt, protected: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are classified and scanned separately
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            holds_lock = protected or any(
                _is_lockish(item.context_expr) for item in stmt.items
            )
            for item in stmt.items:
                self._scan_calls(item.context_expr, protected)
            self._scan_block(stmt.body, holds_lock)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if not protected:
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    self._check_store(
                        target, stmt, counter=isinstance(stmt, ast.AugAssign))
            value = stmt.value
            if value is not None:
                self._scan_calls(value, protected)
            return
        # Generic statement: recurse into compound bodies with the same
        # protection, and check calls in the header expressions.
        for field_name, value in ast.iter_fields(stmt):
            if isinstance(value, list) and value and all(
                    isinstance(s, ast.stmt) for s in value):
                self._scan_block(value, protected)
            elif isinstance(value, ast.expr):
                self._scan_calls(value, protected)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        self._scan_calls(item, protected)
                    elif isinstance(item, ast.excepthandler):
                        self._scan_block(item.body, protected)
                    elif isinstance(item, ast.match_case):
                        self._scan_block(item.body, protected)

    def _scan_calls(self, expr: ast.expr, protected: bool) -> None:
        if protected:
            return
        for node in ast.walk(expr):
            if isinstance(node, ast.Lambda):
                continue
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS):
                continue
            owner = _classify_target(
                node.func.value, self.checker.index, self.checker.path,
                self.local_names)
            if owner is not None:
                self._report(node, owner, counter=False,
                             verb=f".{node.func.attr}()")

    def _check_store(self, target: ast.expr, stmt: ast.stmt,
                     counter: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element, stmt, counter)
            return
        owner = _classify_target(
            target, self.checker.index, self.checker.path, self.local_names)
        if owner is not None:
            self._report(stmt, owner, counter=counter, verb="assignment")

    def _report(self, node: ast.AST, owner: _Owner, counter: bool,
                verb: str) -> None:
        index = self.checker.index
        if owner.kind == "self":
            if index.is_executive(self.cls):
                rule = "RACE001"
                what = "executive state"
            elif index.is_listener(self.cls):
                if counter and SAMPLER not in self.contexts:
                    return  # accepted stat-counter accumulation
                rule = "RACE001"
                what = "device state"
            else:
                return  # plain object: not dispatch-owned
        elif owner.kind == "executive":
            rule = "RACE001"
            what = "executive state"
        else:  # class / module shared state
            rule = "RACE002"
            what = f"shared {owner.kind}-level state"
        contexts = ",".join(sorted(self.contexts))
        thread = "an rx-thread" if RX in self.contexts else "a sampler-thread"
        self.checker.report(
            rule, node,
            f"{owner.detail!r} ({what}) mutated via {verb} from "
            f"{thread}-reachable context [{contexts}] without a lock "
            "or dispatch marshalling (post_inbound)",
            self.qualname, owner.detail,
        )


class RaceChecker(ast.NodeVisitor):
    """Per-file driver: find rx-reachable functions and scan them."""

    def __init__(self, path: str, index: "ProjectIndex") -> None:
        self.path = path
        self.index = index
        self.violations: list[Violation] = []
        self._stack: list[str] = []
        self._class: list[str] = []

    def report(self, rule: str, node: ast.AST, message: str,
               context: str, detail: str) -> None:
        self.violations.append(
            Violation(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                context=context,
                detail=detail,
            )
        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self._class.append(node.name)
        self.generic_visit(node)
        self._class.pop()
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        qualname = ".".join(self._stack + [node.name])
        key = f"{self.path}::{qualname}"
        contexts = self.index.contexts.get(key, frozenset())
        if contexts & _RACY:
            cls = self._class[-1] if self._class else None
            _FunctionScan(self, qualname, cls, contexts).run(node)
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


def check_races(
    path: str, tree: ast.AST, index: "ProjectIndex"
) -> list[Violation]:
    checker = RaceChecker(path, index)
    checker.visit(tree)
    return checker.violations


__all__ = ["MUTATORS", "check_races"]
