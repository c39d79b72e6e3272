"""Execution-context classification for the thread-affinity rules.

The paper's executive model is single-threaded by construction: device
state is only ever touched from the loop of control.  Every function
is therefore classified by *where it can run*, derived from
registration sites rather than annotations:

==========  =========================================================
dispatch    bound as a message handler (``bind``/``bind_default``/
            ``table.bind``), a lifecycle hook (``on_plugin`` ...), or
            the body of a thread whose target drives ``step()`` (the
            ``Executive.start`` loop — the dispatch thread itself)
timer       ``on_timer`` overrides (timers arrive as dispatch frames)
rx-thread   a ``threading.Thread`` target that is *not* the dispatch
            loop: transport accept/reader threads
sampler     a ``threading.Thread`` target that walks
            ``sys._current_frames()`` (directly or through one
            self-method hop): the profiler's observation thread
main        ``main()`` entry points — the blessed control plane
test        ``test_*`` functions
==========  =========================================================

``dispatch``/``timer`` are **dispatch-affine**: both execute on the
executive's loop thread and can never race each other.
``rx-thread`` is the dangerous one — RACE001/RACE002 fire only on
mutations reachable from it or from ``sampler``.  ``sampler`` is
recognised separately so the read-only frame walk is never mistaken
for a transport reader: it is read-only *by contract*, which makes
the race rules stricter there — even the ``+=`` stat-counter idiom
the transports are allowed is a violation on a sampler thread.
Contexts propagate over the name-based
call graph (``self.m``, ``exe.m``/``self.executive.m``,
``exe.routes.m``, and bare same-module calls) to a fixpoint;
dynamically dispatched calls (``obj.m``) propagate nothing, so
unregistered helpers stay unclassified — a deliberate
under-approximation.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from tools.lint.callgraph import FunctionDecl, ProjectIndex

DISPATCH = "dispatch"
TIMER = "timer"
RX = "rx-thread"
SAMPLER = "sampler"
MAIN = "main"
TEST = "test"

#: contexts that execute on the executive's dispatch thread
DISPATCH_AFFINE = frozenset({DISPATCH, TIMER})

#: Listener lifecycle hooks the executive invokes from dispatch
LIFECYCLE_HOOKS = frozenset(
    {"on_plugin", "on_unplug", "on_enable", "on_quiesce", "on_reset",
     "on_parameters", "on_interrupt", "on_dataflow_connected"}
)


def _handler_exprs(call: ast.Call) -> list[ast.expr]:
    """Handler arguments of a bind-style registration call."""
    callee = call.func
    if not isinstance(callee, ast.Attribute):
        return []
    if callee.attr == "bind" and len(call.args) >= 2:
        return [call.args[1]]
    if callee.attr == "bind_default" and call.args:
        return [call.args[0]]
    return []


def _thread_target(call: ast.Call) -> ast.expr | None:
    name = call.func
    callee = (
        name.attr if isinstance(name, ast.Attribute)
        else name.id if isinstance(name, ast.Name) else None
    )
    if callee != "Thread":
        return None
    for kw in call.keywords:
        if kw.arg == "target":
            return kw.value
    return None


def _own_statements(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.AST]:
    """The function's own nodes, excluding nested function bodies."""
    out: list[ast.AST] = []
    stack: list[ast.AST] = list(node.body)
    while stack:
        item = stack.pop()
        out.append(item)
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # nested defs are their own decls
        stack.extend(ast.iter_child_nodes(item))
    return out


def _drives_step(decl: "FunctionDecl") -> bool:
    """Does this thread target run the loop of control (``.step()``)?"""
    for item in _own_statements(decl.node):
        if (isinstance(item, ast.Call)
                and isinstance(item.func, ast.Attribute)
                and item.func.attr == "step"):
            return True
    return False


def _touches_current_frames(decl: "FunctionDecl") -> bool:
    for item in _own_statements(decl.node):
        if isinstance(item, ast.Attribute) and item.attr == "_current_frames":
            return True
    return False


def _walks_frames(
    decl: "FunctionDecl",
    index: "ProjectIndex",
    decls_by_key: dict[str, "FunctionDecl"],
) -> bool:
    """Is this thread target the sampler idiom — does it walk
    ``sys._current_frames()`` itself, or through one self-method hop
    (the ``_run`` → ``sample_once`` loop shape)?"""
    if _touches_current_frames(decl):
        return True
    if decl.cls is None:
        return False
    for item in _own_statements(decl.node):
        if not (isinstance(item, ast.Call)
                and isinstance(item.func, ast.Attribute)
                and isinstance(item.func.value, ast.Name)
                and item.func.value.id in ("self", "cls")):
            continue
        key = index.resolve_method(
            decl.cls, item.func.attr, prefer_path=decl.path)
        callee = decls_by_key.get(key) if key is not None else None
        if callee is not None and _touches_current_frames(callee):
            return True
    return False


def _resolve_targets(
    expr: ast.expr,
    decl: "FunctionDecl",
    index: "ProjectIndex",
    decls_by_key: dict[str, "FunctionDecl"],
) -> list[str]:
    """Keys a handler/target expression may refer to, by name."""
    if isinstance(expr, ast.Attribute):
        recv = expr.value
        if isinstance(recv, ast.Name) and recv.id in ("self", "cls"):
            if decl.cls is not None:
                key = index.resolve_method(
                    decl.cls, expr.attr, prefer_path=decl.path)
                if key is not None:
                    return [key]
            return []
        # Registration through another object: over-approximate to
        # every method of that name (safe: it only ever *adds* a
        # context; reachability is what the race rules key on).
        return list(index.methods_by_name.get(expr.attr, ()))
    if isinstance(expr, ast.Name):
        nested = f"{decl.path}::{decl.qualname}.{expr.id}"
        if nested in decls_by_key:
            return [nested]
        key = index.functions.get((decl.path, expr.id))
        if key is not None:
            return [key]
    return []


def assign_contexts(
    decls: list["FunctionDecl"], index: "ProjectIndex"
) -> dict[str, frozenset[str]]:
    """Seed contexts from registration sites and propagate over calls."""
    decls_by_key = {d.key: d for d in decls}
    contexts: dict[str, set[str]] = {d.key: set() for d in decls}

    # -- seeds ---------------------------------------------------------------
    for decl in decls:
        if decl.name.startswith("test"):
            contexts[decl.key].add(TEST)
        if decl.name == "main" and decl.cls is None:
            contexts[decl.key].add(MAIN)
        if decl.cls is not None:
            if decl.name in LIFECYCLE_HOOKS:
                contexts[decl.key].add(DISPATCH)
            elif decl.name == "on_timer":
                contexts[decl.key].add(TIMER)
            elif decl.name.startswith("_on_"):
                # The Listener standard-handler idiom: bound in
                # _bind_standard and dispatched from the loop.
                contexts[decl.key].add(DISPATCH)

    # -- registration sites + call edges -------------------------------------
    edges: dict[str, set[str]] = {d.key: set() for d in decls}
    for decl in decls:
        for item in _own_statements(decl.node):
            if not isinstance(item, ast.Call):
                continue
            for handler in _handler_exprs(item):
                for key in _resolve_targets(
                        handler, decl, index, decls_by_key):
                    contexts.setdefault(key, set()).add(DISPATCH)
            target = _thread_target(item)
            if target is not None:
                for key in _resolve_targets(
                        target, decl, index, decls_by_key):
                    root = decls_by_key.get(key)
                    if root is not None and _drives_step(root):
                        contexts.setdefault(key, set()).add(DISPATCH)
                    elif root is not None and _walks_frames(
                            root, index, decls_by_key):
                        contexts.setdefault(key, set()).add(SAMPLER)
                    else:
                        contexts.setdefault(key, set()).add(RX)
            # plain call edges for propagation
            func = item.func
            if isinstance(func, ast.Name):
                for key in _resolve_targets(func, decl, index, decls_by_key):
                    edges[decl.key].add(key)
            elif isinstance(func, ast.Attribute):
                recv = func.value
                if isinstance(recv, ast.Name) and recv.id in ("self", "cls"):
                    if decl.cls is not None:
                        key = index.resolve_method(
                            decl.cls, func.attr, prefer_path=decl.path)
                        if key is not None:
                            edges[decl.key].add(key)
                else:
                    for exec_cls in index.executive_owners(recv) or ():
                        key = index.resolve_method(exec_cls, func.attr)
                        if key is not None:
                            edges[decl.key].add(key)

    # -- propagate to fixpoint -----------------------------------------------
    changed = True
    while changed:
        changed = False
        for caller, callees in edges.items():
            ctx = contexts.get(caller)
            if not ctx:
                continue
            for callee in callees:
                target_ctx = contexts.setdefault(callee, set())
                before = len(target_ctx)
                target_ctx.update(ctx)
                if len(target_ctx) != before:
                    changed = True

    return {key: frozenset(ctx) for key, ctx in contexts.items() if ctx}


__all__ = [
    "DISPATCH", "DISPATCH_AFFINE", "LIFECYCLE_HOOKS", "MAIN", "RX",
    "SAMPLER", "TEST", "TIMER", "assign_contexts",
]
