"""OWN001/OWN002/OWN003: the frame-ownership dataflow rules.

A deliberately small abstract interpreter over function bodies.  Each
simple variable bound from a *producer* call (``pool.alloc``,
``frame_alloc``, ``frame_loan``, ``block_loan``) carries an obligation;
*transfer* calls (``transmit``, ``forward``, ``frame_send``,
``make_handoff``, ``post_outbound``, ``post_inbound``, and the receive
doors ``ingest_loaned`` / ``ingest_staged``) and *release*
calls (``release``, ``free``, ``frame_free``, ``release_staged``)
discharge it; any other escape (passed to a call,
stored, returned, yielded) relieves the linter of the obligation —
escape analysis across calls is out of scope by design.

Framework-aware refinements, each mirroring a protocol rule:

* consumptions inside ``with pytest.raises(...)`` (or
  ``assertRaises``) never commit — the ownership contract says a transmit
  that raises leaves ownership with the caller, and such a block
  *asserts* the call raised;
* variables of unknown origin (parameters, attribute loads) are only
  drafted into tracking by a consumer when their name looks
  frame/block-like — ``release()`` is too common a method name
  (semaphores, locks, sim resources) to track every receiver.

Path handling is branch-aware but conservative: states that diverge
across a join become ``MAYBE`` and never fire, ``except`` handlers run
from the ``try`` entry state (ownership stays with the caller when a
transfer raises), and exits lexically inside a ``try`` skip the leak
check (a handler or ``finally`` may release).  False negatives are
acceptable; false positives are bugs in the rule.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from tools.lint.violations import Violation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from tools.lint.callgraph import Summary

#: resolver hook: call site -> (summary, confident) or None
Resolver = Callable[[ast.Call], "tuple[Summary, bool] | None"]

#: calls that move ownership away from a named argument -> its position;
#: a receive door posts the block's frame or returns the block, so the
#: block (or the staged item carrying it) is never the caller's again
TRANSFER_CALLEES = {
    "transmit": 0, "forward": 0, "frame_send": 0, "make_handoff": 0,
    "post_outbound": 0, "post_inbound": 0,
    "ingest_loaned": 1, "ingest_staged": 0,
}
#: first-argument release calls
RELEASE_CALLEES = frozenset(
    {"frame_free", "free", "release_staged"}
)
#: zero-argument methods on the tracked variable itself
RELEASE_METHODS = frozenset({"release"})
#: calls whose result is a fresh owned frame/block when assigned
PRODUCER_CALLEES = frozenset(
    {"frame_alloc", "frame_loan", "alloc", "block_loan"}
)
#: with-items that assert the body raises: consumptions do not commit
RAISES_CALLEES = frozenset({"raises", "assertRaises", "assertRaisesRegex"})

#: unknown-origin variables must look like frames/blocks before a
#: consumer call drafts them into tracking
_FRAMEISH = re.compile(
    r"(^|_)(frame|frm|block|blk|item|buf|buffer|msg|message|failure|reply|"
    r"request|shared)s?(\d*)($|_)",
    re.IGNORECASE,
)


class Own(enum.Enum):
    OWNED = "owned"  # produced here, obligation open
    ESCAPED = "escaped"  # handed to other code; not ours to check
    TRANSFERRED = "transferred"  # a transport/queue owns it now
    RELEASED = "released"  # loan returned
    MAYBE = "maybe"  # states diverged across a join; inert


#: states in which dereferencing the variable is a bug
_DEAD = (Own.TRANSFERRED, Own.RELEASED)


#: variable name -> its ownership status on the current path
State = dict[str, Own]


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _arg_name(call: ast.Call, position: int = 0) -> str | None:
    if len(call.args) > position and isinstance(call.args[position], ast.Name):
        return call.args[position].id
    return None


@dataclass
class _Action:
    """One ownership-relevant call found in a statement."""

    kind: str  # "transfer" | "release" | "borrow"
    var: str
    node: ast.Call
    arg_node: ast.Name | None = None


@dataclass
class OwnershipChecker:
    """Analyses one function (or the module body) for OWN rules.

    ``resolve`` is the interprocedural hook (see
    :mod:`tools.lint.callgraph`): calls that resolve to an
    ownership summary apply the callee's per-parameter effects instead
    of the blanket escape.  ``muted`` suppresses reporting entirely
    (summary computation interprets bodies without emitting findings)
    and ``record_exits``, when set, collects ``(state, return value)``
    at every unmuted ``return`` for the summary join.
    """

    path: str
    context: str
    violations: list[Violation] = field(default_factory=list)
    resolve: Resolver | None = None
    muted: bool = False
    record_exits: list[tuple[State, ast.expr | None]] | None = None
    _try_depth: int = 0
    _mute_depth: int = 0

    # -- reporting ---------------------------------------------------------
    def _report(self, rule: str, node: ast.AST, message: str, var: str) -> None:
        if self._mute_depth or self.muted:
            return
        self.violations.append(
            Violation(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                context=self.context,
                detail=var,
            )
        )

    # -- statement interpreter ---------------------------------------------
    def _exec_block(self, stmts: list[ast.stmt], state: State) -> tuple[State, bool]:
        """Run ``stmts`` over ``state``; returns (state, terminated)."""
        for stmt in stmts:
            terminated = self._exec_stmt(stmt, state)
            if terminated:
                return state, True
        return state, False

    def _exec_stmt(self, stmt: ast.stmt, state: State) -> bool:
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, state)
            then_state, then_term = self._exec_block(stmt.body, dict(state))
            else_state, else_term = self._exec_block(stmt.orelse, dict(state))
            merged, term = _merge(then_state, then_term, else_state, else_term)
            state.clear()
            state.update(merged)
            return term

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, state)
            loop_state = dict(state)
            _clear_targets(stmt.target, loop_state)
            body_state, body_term = self._exec_block(stmt.body, loop_state)
            merged, _ = _merge(state, False, body_state, body_term)
            if stmt.orelse:
                merged, _ = self._exec_block(stmt.orelse, merged)
            state.clear()
            state.update(merged)
            return False

        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, state)
            body_state, body_term = self._exec_block(stmt.body, dict(state))
            merged, _ = _merge(state, False, body_state, body_term)
            if stmt.orelse:
                merged, _ = self._exec_block(stmt.orelse, merged)
            state.clear()
            state.update(merged)
            return False

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            asserts_raise = False
            for item in stmt.items:
                self._scan_expr(item.context_expr, state)
                if (
                    isinstance(item.context_expr, ast.Call)
                    and _callee_name(item.context_expr.func) in RAISES_CALLEES
                ):
                    asserts_raise = True
                if item.optional_vars is not None:
                    _clear_targets(item.optional_vars, state)
            if asserts_raise:
                # The body is *asserted* to raise: whatever it consumed
                # never committed (the ownership failure contract), and its
                # deliberate misuse is the point of the test.  Analyse
                # muted, then keep only the entry state — vars first
                # bound inside may not exist, so they become MAYBE.
                self._mute_depth += 1
                body_state, _ = self._exec_block(stmt.body, dict(state))
                self._mute_depth -= 1
                for var in body_state:
                    if var not in state:
                        state[var] = Own.MAYBE
                return False
            _, term = self._exec_block(stmt.body, state)
            return term

        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, state)
        trystar = getattr(ast, "TryStar", None)
        if trystar is not None and isinstance(stmt, trystar):
            return self._exec_try(stmt, state)

        if isinstance(stmt, ast.Match):
            self._scan_expr(stmt.subject, state)
            branch_states: list[tuple[State, bool]] = []
            for case in stmt.cases:
                case_state = dict(state)
                _clear_targets(case.pattern, case_state)
                branch_states.append(self._exec_block(case.body, case_state))
            merged, term = dict(state), False
            for cs, ct in branch_states:
                merged, term = _merge(merged, term, cs, ct)
            state.clear()
            state.update(merged)
            return term

        if isinstance(stmt, ast.Return):
            if self.record_exits is not None and not self._mute_depth:
                # Snapshot before the bare-return escape conversion and
                # the leak check mutate the path state: the summary
                # join needs the state the caller actually observes.
                self.record_exits.append((dict(state), stmt.value))
            if stmt.value is not None:
                if isinstance(stmt.value, ast.Name):
                    # Bare `return v`: ownership (or the alias) goes to
                    # the caller without a dereference — the
                    # Device.send idiom.  Never OWN001; relieves OWN002.
                    if state.get(stmt.value.id) is Own.OWNED:
                        state[stmt.value.id] = Own.ESCAPED
                else:
                    self._scan_expr(stmt.value, state)
            self._check_leaks(stmt, state)
            return True

        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._scan_expr(stmt.exc, state)
            self._check_leaks(stmt, state)
            return True

        if isinstance(stmt, (ast.Break, ast.Continue)):
            return True

        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state.pop(target.id, None)
            return False

        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested scopes are analysed separately by the visitor.
            state.pop(stmt.name, None)
            return False

        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._exec_assign(stmt, state)
            return False

        if isinstance(stmt, ast.Expr):
            self._scan_expr(stmt.value, state)
            return False

        # import / global / pass / assert / nonlocal ...
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, state)
        return False

    def _exec_try(self, stmt: ast.AST, state: State) -> bool:
        entry = dict(state)
        self._try_depth += 1
        try_state, try_term = self._exec_block(stmt.body, dict(state))
        self._try_depth -= 1

        # A handler observes the try-entry state: a transfer that raised
        # left ownership with the caller (the ownership contract), and a var
        # first bound inside the try may not exist yet.  Anything the
        # try body touched becomes MAYBE.
        exits: list[tuple[State, bool]] = [(try_state, try_term)]
        for handler in stmt.handlers:
            h_state = dict(entry)
            for var, status in try_state.items():
                if entry.get(var) is not status:
                    h_state[var] = Own.MAYBE
            if handler.name:
                h_state.pop(handler.name, None)
            exits.append(self._exec_block(handler.body, h_state))

        merged, term = exits[0]
        for other, other_term in exits[1:]:
            merged, term = _merge(merged, term, other, other_term)

        if stmt.orelse and not try_term:
            else_state, else_term = self._exec_block(
                stmt.orelse, dict(try_state)
            )
            merged, term = _merge(merged, term, else_state, else_term)
        if stmt.finalbody:
            final_state, final_term = self._exec_block(stmt.finalbody, merged)
            merged, term = final_state, term or final_term

        state.clear()
        state.update(merged)
        return term

    # -- assignments --------------------------------------------------------
    def _exec_assign(self, stmt: ast.stmt, state: State) -> None:
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            value, targets = stmt.value, [stmt.target]
        else:  # AugAssign: x += ... reads then writes; never a producer
            self._scan_expr(stmt.value, state)
            self._scan_expr(stmt.target, state)
            return

        produced = isinstance(value, ast.Call) and (
            _callee_name(value.func) in PRODUCER_CALLEES
            or self._returns_fresh(value)
        )
        if value is not None:
            self._scan_expr(value, state)

        for target in targets:
            if isinstance(target, ast.Name):
                if state.get(target.id) is Own.OWNED:
                    self._report(
                        "OWN002",
                        stmt,
                        f"{target.id!r} rebound while still owning an "
                        "unreleased frame/block",
                        target.id,
                    )
                if produced and len(targets) == 1:
                    state[target.id] = Own.OWNED
                else:
                    state.pop(target.id, None)
            else:
                # frame.attr = x / d[k] = v: a store through the var is
                # a read of the base — handled by the value/target scan.
                self._scan_expr(target, state)
                # Storing the object itself (self.pending = frame)
                # hands the loan to state we cannot see.  The value
                # scan misses this only for a bare name, whose walk
                # starts at the root with no parent context.
                if (isinstance(value, ast.Name)
                        and state.get(value.id) is Own.OWNED):
                    state[value.id] = Own.ESCAPED

    # -- expression scanning -------------------------------------------------
    def _scan_expr(self, expr: ast.expr, state: State) -> None:
        """Flag bad uses, apply consumptions, mark escapes — in one pass.

        Reads are judged against the statement-entry state, so a read
        and a consumption inside one statement never flag each other
        (arguments evaluate before the call commits).
        """
        entry = dict(state)
        actions = self._collect_actions(expr)
        consumed_nodes = {id(a.arg_node) for a in actions if a.arg_node}

        for node, parent in _walk_with_parent(expr):
            if not isinstance(node, ast.Name) or not isinstance(node.ctx, ast.Load):
                continue
            var = node.id
            status = entry.get(var)
            if status is None or id(node) in consumed_nodes:
                continue  # consumptions judged below with their semantics
            if status in _DEAD:
                verb = (
                    "transmitted"
                    if status is Own.TRANSFERRED
                    else "released"
                )
                self._report(
                    "OWN001", node, f"{var!r} used after it was {verb}", var
                )
            elif status is Own.OWNED and _is_escape(node, parent):
                state[var] = Own.ESCAPED

        for action in actions:
            status = entry.get(action.var)
            if status is None:
                # Unknown origin: only draft frame/block-looking names —
                # `release()` alone is too common (locks, semaphores,
                # sim resources) to track every receiver.
                if action.kind == "borrow" or not _FRAMEISH.search(action.var):
                    continue
                status = Own.MAYBE
            if action.kind == "borrow":
                # The callee only reads: the obligation stays here (no
                # escape), but handing over a dead frame is still a use.
                if status in _DEAD:
                    verb = (
                        "transmitted"
                        if status is Own.TRANSFERRED
                        else "released"
                    )
                    self._report(
                        "OWN001",
                        action.node,
                        f"{action.var!r} passed to a helper after it "
                        f"was {verb}",
                        action.var,
                    )
                continue
            if action.kind == "release":
                if status is Own.RELEASED:
                    self._report(
                        "OWN003",
                        action.node,
                        f"{action.var!r} released twice on this path",
                        action.var,
                    )
                elif status is Own.TRANSFERRED:
                    self._report(
                        "OWN001",
                        action.node,
                        f"{action.var!r} released after ownership was "
                        "transferred",
                        action.var,
                    )
                state[action.var] = Own.RELEASED
            else:  # transfer
                if status in _DEAD:
                    verb = (
                        "transmitted"
                        if status is Own.TRANSFERRED
                        else "released"
                    )
                    self._report(
                        "OWN001",
                        action.node,
                        f"{action.var!r} sent after it was {verb}",
                        action.var,
                    )
                state[action.var] = Own.TRANSFERRED

    def _collect_actions(self, expr: ast.expr) -> list[_Action]:
        actions: list[_Action] = []
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node.func)
            if callee in TRANSFER_CALLEES:
                position = TRANSFER_CALLEES[callee]
                var = _arg_name(node, position)
                if var is not None:
                    actions.append(
                        _Action("transfer", var, node, node.args[position]))
            elif callee in RELEASE_CALLEES:
                var = _arg_name(node)
                if var is not None:
                    actions.append(_Action("release", var, node, node.args[0]))
            elif (
                callee in RELEASE_METHODS
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
            ):
                actions.append(
                    _Action("release", node.func.value.id, node,
                            node.func.value)
                )
            else:
                actions.extend(self._summary_actions(node))
        return actions

    def _summary_actions(self, node: ast.Call) -> list[_Action]:
        """Interprocedural actions: apply the callee's summary, if any.

        Borrow effects are only honoured on *confident* resolutions
        (own method, same-module function): keeping the obligation
        alive on a guessed callee would manufacture leak reports.
        """
        if self.resolve is None:
            return []
        resolved = self.resolve(node)
        if resolved is None:
            return []
        summary, confident = resolved
        kind_of = {"releases": "release", "transmits": "transfer"}
        if confident:
            kind_of["borrows"] = "borrow"
        actions: list[_Action] = []
        for i, arg in enumerate(node.args):
            if not isinstance(arg, ast.Name) or i >= len(summary.params):
                continue
            kind = kind_of.get(summary.effect_of(summary.params[i]))
            if kind is not None:
                actions.append(_Action(kind, arg.id, node, arg))
        for keyword in node.keywords:
            if keyword.arg is None or not isinstance(keyword.value, ast.Name):
                continue
            kind = kind_of.get(summary.effect_of(keyword.arg))
            if kind is not None:
                actions.append(
                    _Action(kind, keyword.value.id, node, keyword.value))
        return actions

    def _returns_fresh(self, call: ast.Call) -> bool:
        """Does this call resolve to a fresh-frame producer summary?"""
        if self.resolve is None:
            return False
        resolved = self.resolve(call)
        return (resolved is not None and resolved[1]
                and resolved[0].returns_fresh)

    # -- leak checking -------------------------------------------------------
    def _check_leaks(self, at: ast.stmt, state: State) -> None:
        if self._try_depth > 0:
            # A handler or finally may still discharge the obligation.
            return
        exit_kind = "raise" if isinstance(at, ast.Raise) else "return"
        for var in sorted(state):
            if state[var] is Own.OWNED:
                self._report(
                    "OWN002",
                    at,
                    f"{var!r} still owns its frame/block at this "
                    f"{exit_kind} (missing release on this path)",
                    var,
                )
                state[var] = Own.ESCAPED  # one report per path

    def finish(self, state: State, last: ast.stmt | None) -> None:
        """Leak check at the implicit end-of-body return."""
        if last is None:
            return
        for var in sorted(state):
            if state[var] is Own.OWNED:
                self._report(
                    "OWN002",
                    last,
                    f"{var!r} still owns its frame/block when the "
                    "function ends (missing release on this path)",
                    var,
                )


def check_ownership(
    path: str, context: str, body: list[ast.stmt],
    resolve: Resolver | None = None,
) -> list[Violation]:
    """Run the OWN rules over one function (or module) body."""
    checker = OwnershipChecker(path=path, context=context, resolve=resolve)
    state, terminated = checker._exec_block(body, {})
    if not terminated:
        checker.finish(state, body[-1] if body else None)
    return checker.violations


# -- helpers ---------------------------------------------------------------
def _merge(
    a: State, a_term: bool, b: State, b_term: bool
) -> tuple[State, bool]:
    if a_term and b_term:
        return dict(a), True
    if a_term:
        return dict(b), False
    if b_term:
        return dict(a), False
    out: State = {}
    for var in set(a) | set(b):
        sa = a.get(var)
        out[var] = sa if sa is not None and sa is b.get(var) else Own.MAYBE
    return out, False


def _clear_targets(target: ast.AST, state: State) -> None:
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            state.pop(node.id, None)
        elif isinstance(node, ast.MatchAs) and node.name:
            state.pop(node.name, None)


def _walk_with_parent(
    root: ast.AST,
) -> list[tuple[ast.AST, ast.AST | None]]:
    out: list[tuple[ast.AST, ast.AST | None]] = [(root, None)]
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            out.append((child, node))
            stack.append(child)
    return out


def _is_escape(node: ast.Name, parent: ast.AST | None) -> bool:
    """Does this read hand the loan to code we cannot see?

    Attribute/subscript access through the variable (``frame.payload``,
    ``item[0]``) and identity/truth tests are plain reads; anything
    that embeds the object itself — a call argument, a container
    literal, an assignment value, a yield — escapes it.
    """
    if parent is None:
        return False
    if isinstance(parent, (ast.Attribute, ast.Subscript)):
        return False  # reading through the var
    if isinstance(parent, (ast.Compare, ast.BoolOp, ast.UnaryOp)):
        return False  # identity/truth tests don't capture the object
    return True
