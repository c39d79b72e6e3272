"""Ownership summaries, call resolution and the interprocedural OWN rules."""

from __future__ import annotations

import ast
import textwrap

from tools.lint import lint_source
from tools.lint.callgraph import (
    BORROWS,
    ESCAPES,
    RELEASES,
    TRANSMITS,
    build_index,
)


def index_of(**modules: str):
    units = [
        (f"{name}.py", ast.parse(textwrap.dedent(source)))
        for name, source in modules.items()
    ]
    return build_index(units)


def summary(index, key: str):
    return index.summaries[key]


def rules(source: str) -> list[str]:
    report = lint_source(textwrap.dedent(source), "t.py")
    assert report.parse_error is None
    return [v.rule for v in report.violations if not v.suppressed]


class TestSummaries:
    def test_release_transmit_borrow(self):
        index = index_of(m="""
            def drop(frame):
                frame.release()

            def ship(transport, frame):
                transport.transmit(frame)

            def peek(frame, log):
                log.append(frame.total_size)
        """)
        assert summary(index, "m.py::drop").effect_of("frame") == RELEASES
        ship = summary(index, "m.py::ship")
        assert ship.effect_of("frame") == TRANSMITS
        assert ship.effect_of("transport") == BORROWS
        assert summary(index, "m.py::peek").effect_of("frame") == BORROWS

    def test_path_dependent_release_escapes(self):
        index = index_of(m="""
            def maybe(frame, flag):
                if flag:
                    frame.release()
        """)
        assert summary(index, "m.py::maybe").effect_of("frame") == ESCAPES

    def test_stored_param_escapes(self):
        index = index_of(m="""
            def stash(self, frame):
                self.pending = frame
        """)
        assert summary(index, "m.py::stash").effect_of("frame") == ESCAPES

    def test_raise_exits_are_ignored(self):
        # PR-3 contract: a transfer that raises leaves ownership with
        # the caller, so the raising path must not dilute the join.
        index = index_of(m="""
            def ship(transport, frame):
                if transport is None:
                    raise ValueError("no transport")
                transport.transmit(frame)
        """)
        assert summary(index, "m.py::ship").effect_of("frame") == TRANSMITS

    def test_chained_helpers_reach_fixpoint(self):
        index = index_of(m="""
            def inner(frame):
                frame.release()

            def middle(frame):
                inner(frame)

            def outer(frame):
                middle(frame)
        """)
        assert summary(index, "m.py::outer").effect_of("frame") == RELEASES

    def test_returns_fresh(self):
        index = index_of(m="""
            def make(pool):
                frame = pool.alloc(64)
                return frame

            def wrap(pool):
                return make(pool)

            def ident(frame):
                return frame
        """)
        assert summary(index, "m.py::make").returns_fresh
        assert summary(index, "m.py::wrap").returns_fresh
        # Handing a parameter back is not production.
        assert not summary(index, "m.py::ident").returns_fresh


class TestResolution:
    def test_self_method_through_base_class(self):
        index = index_of(
            base="""
                class Base:
                    def finish(self, frame):
                        frame.release()
            """,
            sub="""
                class Sub(Base):
                    def run(self, pool):
                        frame = pool.alloc(8)
                        self.finish(frame)
            """,
        )
        call = ast.parse("self.finish(frame)", mode="eval").body
        resolved = index.resolve_call("sub.py", "Sub", "Sub.run", call)
        assert resolved is not None
        summary_, confident = resolved
        assert confident
        assert summary_.effect_of("frame") == RELEASES

    def test_ambiguous_bare_name_does_not_resolve(self):
        index = index_of(m="""
            class A:
                pass

            def helper(frame):
                frame.release()
        """, n="""
            def helper(frame):
                frame.release()

            def caller(frame):
                helper(frame)
        """)
        # Same-file bare names resolve; cross-file ones never do.
        call = ast.parse("helper(frame)", mode="eval").body
        assert index.resolve_call("n.py", None, "caller", call) is not None
        assert index.resolve_call("other.py", None, None, call) is None

    def test_unknown_receiver_needs_unanimity(self):
        index = index_of(m="""
            class A:
                def close(self, frame):
                    frame.release()

            class B:
                def close(self, frame):
                    self.log = frame
        """)
        call = ast.parse("obj.close(frame)", mode="eval").body
        # Two disagreeing summaries under the same name: no verdict.
        assert index.resolve_call("m.py", None, None, call) is None


class TestContexts:
    def test_thread_target_is_rx(self):
        index = index_of(m="""
            class Dev(Listener):
                def on_plugin(self):
                    threading.Thread(target=self._rx_loop).start()

                def _rx_loop(self):
                    pass
        """)
        assert "rx-thread" in index.contexts["m.py::Dev._rx_loop"]
        assert "dispatch" in index.contexts["m.py::Dev.on_plugin"]

    def test_step_driving_thread_is_dispatch(self):
        index = index_of(m="""
            class Dev(Listener):
                def start(self, exe):
                    threading.Thread(target=self._loop).start()

                def _loop(self):
                    while True:
                        self.executive.step()
        """)
        contexts = index.contexts["m.py::Dev._loop"]
        assert "dispatch" in contexts and "rx-thread" not in contexts

    def test_contexts_propagate_through_calls(self):
        index = index_of(m="""
            class Dev(Listener):
                def on_plugin(self):
                    threading.Thread(target=self._rx_loop).start()

                def _rx_loop(self):
                    self._ingest()

                def _ingest(self):
                    pass
        """)
        assert "rx-thread" in index.contexts["m.py::Dev._ingest"]


class TestInterproceduralRules:
    def test_own001_use_after_helper_transmit(self):
        assert rules("""
            def ship(transport, frame):
                transport.transmit(frame)

            def f(transport, pool):
                frame = pool.alloc(10)
                ship(transport, frame)
                return frame.payload
        """) == ["OWN001"]

    def test_own003_double_release_via_helper(self):
        assert rules("""
            def drop(frame):
                frame.release()

            def f(pool):
                frame = pool.alloc(10)
                drop(frame)
                frame.release()
        """) == ["OWN003"]

    def test_own002_borrow_helper_keeps_obligation(self):
        assert rules("""
            def peek(frame, log):
                log.append(frame.total_size)

            def f(pool, log):
                frame = pool.alloc(10)
                peek(frame, log)
        """) == ["OWN002"]

    def test_helper_release_discharges_obligation(self):
        assert rules("""
            def drop(frame):
                frame.release()

            def f(pool):
                frame = pool.alloc(10)
                drop(frame)
        """) == []

    def test_unresolved_call_still_escapes(self):
        # No summary for `mystery` anywhere: today's escape semantics.
        assert rules("""
            def f(pool, mystery):
                frame = pool.alloc(10)
                mystery(frame)
        """) == []
