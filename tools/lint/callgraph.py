"""Project-wide call graph, ownership summaries and the lint index.

The intraprocedural OWN rules treat every call they cannot interpret as
an *escape*: the frame is handed to code the checker cannot see, and
the obligation is dropped.  That is sound but blind — a helper that
merely inspects a frame relieves its caller of the leak check, and a
helper that releases or transmits one is invisible to the double-free
and use-after-transfer rules.

This module closes the gap with **ownership summaries**.  Every
function in the project is abstractly interpreted once per fixpoint
round with its parameters seeded as owned frames; the join over its
normal (return) exits classifies each parameter:

========== =========================================================
releases   every normal exit has dropped the reference
transmits  every normal exit has transferred it to a transport/queue
borrows    every normal exit leaves it owned — the callee only reads
escapes    anything else (stored, re-escaped, path-dependent)
========== =========================================================

plus ``returns_fresh``: every return hands back a newly produced owned
frame (the ``make_frame``-helper idiom).  Raise exits are ignored by
design — the ownership contract says a transfer that raises leaves
ownership with the caller, which is exactly how the caller-side
``try`` handling already models it.

Call sites resolve to summaries by name, never by type inference:

* ``self.m(...)``   — walk the class's bases (by name, project-wide);
* ``exe.m(...)``/``self.executive.m(...)`` — the ``Executive`` class;
* ``exe.routes.m(...)`` — the executive-owned part's class
  (``RouteTable``, :data:`EXECUTIVE_PARTS`);
* ``f(...)``        — nested function, else same-module function;
* ``obj.m(...)``    — only when every method of that name in the
  project agrees, and then only for release/transmit effects.

The first three are *confident* resolutions and honour all effects
including ``borrows`` (which keeps the caller's obligation alive —
the interprocedural teeth).  The last is weak: a borrowed verdict from
an unknown receiver could be a stdlib object, so only the destructive
effects travel.  Unresolved calls keep today's escape semantics; false
negatives are acceptable, false positives are rule bugs.

The resulting :class:`ProjectIndex` is plain picklable data (no AST
nodes): summaries, execution contexts (:mod:`.contexts`) and the class
hierarchy.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from tools.lint import contexts as contexts_mod
from tools.lint.ownership import (
    PRODUCER_CALLEES,
    OwnershipChecker,
    Own,
    Resolver,
    State,
    _callee_name,
)

#: summary effects, per parameter
RELEASES = "releases"
TRANSMITS = "transmits"
BORROWS = "borrows"
ESCAPES = "escapes"

#: receiver spellings that denote "the executive" throughout the tree
EXECUTIVE_NAMES = frozenset({"exe", "executive"})
EXECUTIVE_ATTRS = frozenset({"executive", "_exe"})
#: executive attributes holding executive-owned state, by class: their
#: methods resolve from ``exe.<attr>.m(...)``, and their ``self`` is
#: executive state (no stat-counter pass)
EXECUTIVE_PARTS = {"routes": "RouteTable"}

#: fixpoint rounds: summaries stabilise in (helper-chain depth) rounds;
#: real chains in this tree are 2-3 deep
_MAX_ROUNDS = 5


@dataclass(frozen=True)
class Summary:
    """Ownership effect of one function, joined over its return exits."""

    params: tuple[str, ...]  # positional order, self/cls dropped
    effects: tuple[tuple[str, str], ...]  # (param, effect) pairs
    returns_fresh: bool = False

    def effect_of(self, param: str) -> str:
        for name, effect in self.effects:
            if name == param:
                return effect
        return ESCAPES


@dataclass
class FunctionDecl:
    """Transient per-function record used while building the index."""

    path: str
    qualname: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: tuple[str, ...]
    lineno: int

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


@dataclass
class ProjectIndex:
    """Picklable cross-file facts shared by every per-file lint pass."""

    #: "path::qualname" -> ownership summary
    summaries: dict[str, Summary] = field(default_factory=dict)
    #: (path, bare name) -> key, module-level and unambiguous nested defs
    functions: dict[tuple[str, str], str] = field(default_factory=dict)
    #: (class name, method name) -> keys (one per defining file)
    methods: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    #: method name -> every defining key in the project
    methods_by_name: dict[str, list[str]] = field(default_factory=dict)
    #: class name -> direct base names (last definition wins)
    class_bases: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: classes that transitively subclass Listener / Executive
    listener_classes: frozenset[str] = frozenset()
    executive_classes: frozenset[str] = frozenset()
    #: "path::qualname" -> execution contexts (see .contexts)
    contexts: dict[str, frozenset[str]] = field(default_factory=dict)
    #: path -> module-level mutable bindings (RACE002 candidates)
    module_state: dict[str, frozenset[str]] = field(default_factory=dict)

    # -- class hierarchy -----------------------------------------------------
    def mro_names(self, cls: str) -> list[str]:
        """Name-based linearisation: the class, then BFS over bases."""
        seen: list[str] = []
        queue = [cls]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.append(name)
            queue.extend(self.class_bases.get(name, ()))
        return seen

    def is_listener(self, cls: str | None) -> bool:
        return cls is not None and cls in self.listener_classes

    def is_executive(self, cls: str | None) -> bool:
        return cls is not None and (
            cls in self.executive_classes or cls in EXECUTIVE_PARTS.values())

    def executive_owners(self, receiver: ast.expr) -> list[str] | None:
        """Classes a call on ``receiver`` resolves on when the receiver
        is the executive (every ``Executive`` subclass) or one of its
        parts (``exe.routes`` -> ``RouteTable``); None otherwise."""
        if _is_executive_receiver(receiver):
            return sorted(self.executive_classes)
        if (isinstance(receiver, ast.Attribute)
                and receiver.attr in EXECUTIVE_PARTS
                and _is_executive_receiver(receiver.value)):
            return [EXECUTIVE_PARTS[receiver.attr]]
        return None

    def resolve_method(self, cls: str, method: str,
                       prefer_path: str | None = None) -> str | None:
        """Defining key of ``method`` on ``cls``, walking base names."""
        for klass in self.mro_names(cls):
            keys = self.methods.get((klass, method))
            if keys:
                if prefer_path is not None:
                    for key in keys:
                        if key.startswith(prefer_path + "::"):
                            return key
                return keys[0]
        return None

    # -- call resolution -----------------------------------------------------
    def resolve_call(
        self, path: str, cls: str | None, qualname: str | None,
        call: ast.Call,
    ) -> tuple[Summary, bool] | None:
        """(summary, confident) for a call site, or None.

        ``qualname`` is the enclosing function (for nested-def lookup).
        Star-args defeat positional matching, so such calls never
        resolve.
        """
        if any(isinstance(a, ast.Starred) for a in call.args):
            return None
        func = call.func
        if isinstance(func, ast.Name):
            key = self._resolve_bare(path, qualname, func.id)
            if key is not None and key in self.summaries:
                return self.summaries[key], True
            return None
        if not isinstance(func, ast.Attribute):
            return None
        receiver, method = func.value, func.attr
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            if cls is None:
                return None
            key = self.resolve_method(cls, method, prefer_path=path)
            if key is not None and key in self.summaries:
                return self.summaries[key], True
            return None
        owners = self.executive_owners(receiver)
        if owners is not None:
            for exec_cls in owners:
                key = self.resolve_method(exec_cls, method)
                if key is not None and key in self.summaries:
                    return self.summaries[key], True
            return None
        # obj.m(...): weak — only a project-unanimous verdict travels.
        keys = self.methods_by_name.get(method)
        if not keys:
            return None
        candidates = {self.summaries[k] for k in keys if k in self.summaries}
        if len(candidates) == 1:
            return next(iter(candidates)), False
        return None

    def _resolve_bare(
        self, path: str, qualname: str | None, name: str
    ) -> str | None:
        if qualname is not None:
            nested = f"{path}::{qualname}.{name}"
            if nested in self.summaries:
                return nested
        return self.functions.get((path, name))

    def make_resolver(
        self, path: str, cls: str | None, qualname: str | None
    ) -> Resolver:
        """Bind resolve_call for one scope (the ownership checker hook)."""

        def resolve(call: ast.Call) -> tuple[Summary, bool] | None:
            return self.resolve_call(path, cls, qualname, call)

        return resolve


def _is_executive_receiver(expr: ast.expr) -> bool:
    """``exe`` / ``executive`` / ``<x>.executive`` / ``<x>._exe``."""
    if isinstance(expr, ast.Name):
        return expr.id in EXECUTIVE_NAMES
    if isinstance(expr, ast.Attribute):
        return expr.attr in EXECUTIVE_ATTRS
    return False


# -- collection -------------------------------------------------------------
def _params_of(
    node: ast.FunctionDef | ast.AsyncFunctionDef, in_class: bool
) -> tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    is_static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list
    )
    if in_class and not is_static and names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


class _Collector(ast.NodeVisitor):
    """One pass per module: function decls, class bases, module state."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.decls: list[FunctionDecl] = []
        self.class_bases: dict[str, tuple[str, ...]] = {}
        self.module_state: set[str] = set()
        self._stack: list[str] = []
        self._class: list[str] = []

    def visit_Module(self, node: ast.Module) -> None:
        # Mutable module-level bindings are RACE002 candidates.
        targets: list[ast.expr]
        value: ast.expr | None
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.Call,
                                  ast.DictComp, ast.ListComp, ast.SetComp)):
                self.module_state.update(
                    t.id for t in targets
                    if isinstance(t, ast.Name) and not t.id.startswith("__")
                )
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_bases[node.name] = tuple(
            base.id if isinstance(base, ast.Name) else base.attr
            for base in node.bases
            if isinstance(base, (ast.Name, ast.Attribute))
        )
        self._stack.append(node.name)
        self._class.append(node.name)
        self.generic_visit(node)
        self._class.pop()
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        in_class = bool(
            self._class and self._stack and self._stack[-1] == self._class[-1]
        )
        qualname = ".".join(self._stack + [node.name])
        self.decls.append(
            FunctionDecl(
                path=self.path,
                qualname=qualname,
                name=node.name,
                cls=self._class[-1] if self._class else None,
                node=node,
                params=_params_of(node, in_class),
                lineno=node.lineno,
            )
        )
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


def _subclasses_of(
    roots: frozenset[str], class_bases: dict[str, tuple[str, ...]]
) -> frozenset[str]:
    """Classes whose name-based base chain reaches any of ``roots``."""
    hit: set[str] = set(roots)
    changed = True
    while changed:
        changed = False
        for cls, bases in class_bases.items():
            if cls not in hit and any(b in hit for b in bases):
                hit.add(cls)
                changed = True
    return frozenset(hit)


# -- summaries ---------------------------------------------------------------
def _summarize(decl: FunctionDecl, index: ProjectIndex) -> Summary:
    """Abstractly interpret one function with owned parameters."""
    resolve = index.make_resolver(decl.path, decl.cls, decl.qualname)
    checker = OwnershipChecker(
        path=decl.path, context=decl.qualname, resolve=resolve, muted=True,
    )
    checker.record_exits = []
    state: State = {p: Own.OWNED for p in decl.params}
    end_state, terminated = checker._exec_block(list(decl.node.body), state)
    exits = list(checker.record_exits)
    if not terminated:
        exits.append((dict(end_state), None))

    effects: list[tuple[str, str]] = []
    for param in decl.params:
        effects.append((param, _join_effect(param, exits)))
    return Summary(
        params=decl.params,
        effects=tuple(effects),
        returns_fresh=_returns_fresh(decl, exits, resolve),
    )


def _join_effect(
    param: str, exits: list[tuple[State, ast.expr | None]]
) -> str:
    if not exits:
        return ESCAPES  # always raises: callee consumed nothing we trust
    statuses: set[Own] = set()
    for state, _retval in exits:
        status = state.get(param)
        if status is None:
            return ESCAPES
        statuses.add(status)
    if statuses == {Own.OWNED}:
        return BORROWS
    if statuses == {Own.RELEASED}:
        return RELEASES
    if statuses == {Own.TRANSFERRED}:
        return TRANSMITS
    return ESCAPES


def _returns_fresh(
    decl: FunctionDecl,
    exits: list[tuple[State, ast.expr | None]],
    resolve: Resolver,
) -> bool:
    if not exits:
        return False
    for state, retval in exits:
        if retval is None:
            return False
        if isinstance(retval, ast.Name):
            if (retval.id in decl.params
                    or state.get(retval.id) is not Own.OWNED):
                return False
        elif isinstance(retval, ast.Call):
            if _callee_name(retval.func) in PRODUCER_CALLEES:
                continue
            resolved = resolve(retval)
            if not (resolved and resolved[1] and resolved[0].returns_fresh):
                return False
        else:
            return False
    return True


# -- index construction ------------------------------------------------------
def build_index(units: list[tuple[str, ast.Module]]) -> ProjectIndex:
    """Build the cross-file index from parsed (path, tree) units."""
    index = ProjectIndex()
    decls: list[FunctionDecl] = []
    seen_bare: dict[tuple[str, str], int] = {}

    for path, tree in units:
        collector = _Collector(path)
        collector.visit(tree)
        decls.extend(collector.decls)
        index.module_state[path] = frozenset(collector.module_state)
        index.class_bases.update(collector.class_bases)

    index.listener_classes = _subclasses_of(
        frozenset({"Listener"}), index.class_bases)
    index.executive_classes = _subclasses_of(
        frozenset({"Executive"}), index.class_bases)

    for decl in decls:
        if decl.cls is not None and decl.qualname.count(".") == 1:
            index.methods.setdefault(
                (decl.cls, decl.name), []).append(decl.key)
            index.methods_by_name.setdefault(decl.name, []).append(decl.key)
        else:
            # Module-level and nested defs resolve by bare name; an
            # ambiguous name within one file resolves to nothing.
            slot = (decl.path, decl.name)
            seen_bare[slot] = seen_bare.get(slot, 0) + 1
            if seen_bare[slot] == 1:
                index.functions[slot] = decl.key
            else:
                index.functions.pop(slot, None)

    for _round in range(_MAX_ROUNDS):
        changed = False
        for decl in decls:
            summary = _summarize(decl, index)
            if index.summaries.get(decl.key) != summary:
                index.summaries[decl.key] = summary
                changed = True
        if not changed:
            break

    index.contexts = contexts_mod.assign_contexts(decls, index)
    return index


__all__ = [
    "BORROWS", "ESCAPES", "RELEASES", "TRANSMITS",
    "FunctionDecl", "ProjectIndex", "Summary", "build_index",
]
