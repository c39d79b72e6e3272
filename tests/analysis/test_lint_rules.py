"""Every lint rule: fires on the bug, stays silent on the idiom,
yields to a ``# repro: noqa``."""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path

from tools.lint import lint_source
from tools.lint.engine import _stmt_spans, _suppressed_rules


def run(source: str):
    report = lint_source(textwrap.dedent(source), "t.py")
    assert report.parse_error is None
    return report.violations


def rules(source: str) -> list[str]:
    return [v.rule for v in run(source) if not v.suppressed]


class TestOwn001UseAfterTransfer:
    def test_read_after_transmit(self):
        assert rules("""
            def f(transport, pool):
                frame = pool.alloc(10)
                transport.transmit(frame)
                return frame.payload
        """) == ["OWN001"]

    def test_read_after_release(self):
        assert rules("""
            def f(pool):
                block = pool.alloc(10)
                block.release()
                return block.capacity
        """) == ["OWN001"]

    def test_release_after_transmit(self):
        assert rules("""
            def f(transport, pool):
                frame = pool.alloc(10)
                transport.transmit(frame)
                frame.release()
        """) == ["OWN001"]

    def test_retransmit_after_transmit(self):
        assert rules("""
            def f(transport, pool):
                frame = pool.alloc(10)
                transport.transmit(frame)
                transport.transmit(frame)
        """) == ["OWN001"]

    def test_bare_return_is_not_a_use(self):
        # The Device.send idiom: hand the alias to the caller.
        assert rules("""
            def send(self, pool):
                frame = pool.alloc(10)
                self.frame_send(frame)
                return frame
        """) == []

    def test_use_before_transmit_is_fine(self):
        assert rules("""
            def f(transport, pool):
                frame = pool.alloc(10)
                frame.payload[:] = b"x" * 10
                transport.transmit(frame)
        """) == []

    def test_failed_transmit_leaves_ownership_with_caller(self):
        # The PR-3 contract: a transmit that raises did not commit, so
        # the except handler both releasing and re-reading is legal.
        assert rules("""
            def f(transport, pool):
                frame = pool.alloc(10)
                try:
                    transport.transmit(frame)
                except OSError:
                    frame.release()
                    raise
        """) == []


class TestOwn002MissingRelease:
    def test_leak_at_end_of_function(self):
        assert rules("""
            def f(pool):
                frame = pool.alloc(10)
                frame.payload[:] = b"0123456789"
        """) == ["OWN002"]

    def test_leak_on_early_return(self):
        assert rules("""
            def f(pool, flag):
                frame = pool.alloc(10)
                if flag:
                    return None
                frame.release()
        """) == ["OWN002"]

    def test_leak_on_raise(self):
        assert rules("""
            def f(pool, flag):
                frame = pool.alloc(10)
                if flag:
                    raise ValueError("nope")
                frame.release()
        """) == ["OWN002"]

    def test_rebind_while_owned(self):
        assert rules("""
            def f(pool):
                frame = pool.alloc(10)
                frame = pool.alloc(20)
                frame.release()
        """) == ["OWN002"]

    def test_dropped_frame_loan(self):
        # ``frame_loan`` is the positional loan ``Listener._post`` uses.
        assert rules("""
            def f(exe, target):
                f = exe.frame_loan(0, 1, 0xFF, target, 0, 8, 0, 0, 0, 0)
                f.payload[:] = b"01234567"
        """) == ["OWN002"]

    def test_dropped_block_loan(self):
        assert rules("""
            def f(exe):
                block = exe.block_loan(64)
                return block.capacity
        """) == ["OWN002"]

    def test_receive_door_takes_the_block(self):
        # ``ingest_loaned`` posts the block's frame or returns the
        # block: either way the block is no longer the caller's.
        assert rules("""
            def f(self, exe, data):
                block = exe.block_loan(len(data))
                view = block.memory[:len(data)]
                view[:] = data
                return self.ingest_loaned(0, block, view)
        """) == []
        assert rules("""
            def f(self, exe, view):
                block = exe.block_loan(len(view))
                self.ingest_loaned(0, block, view)
                block.release()
        """) == ["OWN001"]

    def test_escape_via_call_relieves_obligation(self):
        assert rules("""
            def f(pool, stash):
                frame = pool.alloc(10)
                stash.append(frame)
        """) == []

    def test_escape_via_constructor_relieves_obligation(self):
        # The ingest idiom: Frame(view, block=block) takes the block.
        assert rules("""
            def f(pool, view):
                block = pool.alloc(10)
                return Frame(view, block=block)
        """) == []

    def test_raise_inside_try_is_not_a_leak(self):
        assert rules("""
            def f(pool):
                frame = pool.alloc(10)
                try:
                    if frame.capacity < 10:
                        raise ValueError("small")
                finally:
                    frame.release()
        """) == []


class TestOwn003DoubleRelease:
    def test_double_release(self):
        assert rules("""
            def f(pool):
                block = pool.alloc(10)
                block.release()
                block.release()
        """) == ["OWN003"]

    def test_release_on_both_branches_then_again(self):
        assert rules("""
            def f(pool, flag):
                block = pool.alloc(10)
                if flag:
                    block.release()
                else:
                    block.release()
                block.release()
        """) == ["OWN003"]

    def test_release_on_one_branch_only_is_maybe(self):
        # Divergent states merge to MAYBE: conservative, no report.
        assert rules("""
            def f(pool, flag):
                block = pool.alloc(10)
                if flag:
                    block.release()
                block.release()
        """) == []

    def test_non_frameish_names_are_not_tracked(self):
        # Semaphore semantics collide with the method name; unknown-
        # origin variables are only tracked when they look like blocks.
        assert rules("""
            def f(sem):
                sem.release()
                sem.release()
        """) == []

    def test_frameish_unknown_origin_is_tracked(self):
        assert rules("""
            def f(frame):
                frame.release()
                frame.release()
        """) == ["OWN003"]


class TestPytestRaisesMuting:
    def test_consumption_inside_raises_does_not_commit(self):
        assert rules("""
            def test_bad(pool, pytest):
                block = pool.alloc(10)
                block.release()
                with pytest.raises(BlockStateError):
                    block.release()
        """) == []

    def test_use_after_asserted_failure_is_fine(self):
        assert rules("""
            def test_failed_send(transport, pool, pytest):
                frame = pool.alloc(10)
                with pytest.raises(OSError):
                    transport.transmit(frame)
                frame.release()
        """) == []


def ruff_select() -> set[str]:
    """The ``[tool.ruff.lint] select`` codes in pyproject.toml."""
    text = (Path(__file__).parents[2] / "pyproject.toml").read_text()
    lint = text.split("[tool.ruff.lint]")[1]
    listing = re.search(r"^select = \[(.*?)\]", lint, re.M | re.S)
    assert listing is not None
    return set(re.findall(r'"([A-Z]+\d*)"', listing.group(1)))


class TestExc001BroadExcepts:
    """The swallowed-exception rule moved to ruff; these codes are what
    replaced it, so they must stay selected."""

    def test_bare_except(self):
        assert {"E", "E722"} & ruff_select()

    def test_swallowed_broad_exception(self):
        # `except Exception: pass` / `... continue`
        assert {"S110", "S112"} <= ruff_select()


class TestNoqaSuppression:
    SOURCE = """
        def f(pool):
            block = pool.alloc(10)
            block.release()
            return block.capacity{noqa}
    """

    def test_unsuppressed(self):
        assert rules(self.SOURCE.format(noqa="")) == ["OWN001"]

    def test_rule_specific_noqa(self):
        violations = run(self.SOURCE.format(noqa="  # repro: noqa OWN001"))
        assert [v.rule for v in violations] == ["OWN001"]
        assert violations[0].suppressed

    def test_bare_noqa_suppresses_everything(self):
        assert rules(self.SOURCE.format(noqa="  # repro: noqa")) == []

    def test_wrong_rule_does_not_suppress(self):
        assert rules(self.SOURCE.format(noqa="  # repro: noqa OWN002")) == [
            "OWN001"
        ]


class TestMultilineNoqa:
    def test_noqa_anywhere_in_a_parenthesized_statement(self):
        # The violation anchors inside the call; the noqa sits on the
        # statement's first line.  Same statement, same suppression.
        assert rules("""
            def f(transport, pool, log):
                frame = pool.alloc(10)
                transport.transmit(frame)
                log(  # repro: noqa OWN001
                    frame.payload,
                )
        """) == []

    def test_noqa_on_closing_line(self):
        assert rules("""
            def f(transport, pool, log):
                frame = pool.alloc(10)
                transport.transmit(frame)
                log(
                    frame.payload,
                )  # repro: noqa OWN001
        """) == []

    def test_noqa_covers_a_decorator_stack(self):
        # Compound statements suppress over their *header* — decorators
        # through the def line — but never the body.
        source = textwrap.dedent("""
            @register(
                option,
            )  # repro: noqa OWN003
            def f(pool):
                block = pool.alloc(10)
                block.release()
                block.release()
        """)
        lines = source.splitlines()
        spans = _stmt_spans(ast.parse(source))
        def_line = lines.index("def f(pool):") + 1
        assert "OWN003" in _suppressed_rules(def_line - 3, lines, spans)
        assert "OWN003" in _suppressed_rules(def_line, lines, spans)
        assert rules(source) == ["OWN003"]

    def test_noqa_does_not_leak_to_the_next_statement(self):
        assert rules("""
            def f(pool):
                a = pool.alloc(10)
                a.release()  # repro: noqa OWN003
                a.release()
        """) == ["OWN003"]


class TestModuleLevelCode:
    def test_module_body_is_checked(self):
        violations = run("""
            block = pool.alloc(10)
            block.release()
            block.release()
        """)
        assert [v.rule for v in violations] == ["OWN003"]
        assert violations[0].context == "<module>"

    def test_parse_error_reported_not_raised(self):
        report = lint_source("def broken(:\n", "t.py")
        assert report.parse_error is not None
        assert report.violations == []


class TestProducersMatchTheCode:
    """The producer table names real loan methods, and no loan method
    of the executive is missing from it: a loan the lint cannot see
    is a leak it cannot report."""

    SRC = Path(__file__).parents[2] / "src" / "repro"

    def _methods(self) -> dict[tuple[str, str], ast.FunctionDef]:
        methods = {}
        for path in self.SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            methods[(node.name, item.name)] = item
        return methods

    def test_every_producer_is_a_method_under_src(self):
        from tools.lint.ownership import PRODUCER_CALLEES

        defined = {name for _cls, name in self._methods()}
        assert PRODUCER_CALLEES <= defined, PRODUCER_CALLEES - defined

    def test_every_executive_loan_is_a_producer(self):
        from tools.lint.ownership import PRODUCER_CALLEES

        loans = {
            name for (cls, name), node in self._methods().items()
            if cls == "Executive" and node.returns is not None
            and ast.unparse(node.returns).strip("'\"") in {"Frame", "PoolBlock"}
        }
        assert {"frame_alloc", "frame_loan", "block_loan"} <= loans
        assert loans <= PRODUCER_CALLEES, loans - PRODUCER_CALLEES
