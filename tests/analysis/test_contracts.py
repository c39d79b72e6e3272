"""DFL002/DFL003: static dataflow-contract conformance."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import baseline
from repro.analysis.lint import lint_source

HEADER = textwrap.dedent("""
    XF_A = 0x0101
    XF_B = 0x0102
    MT_A = message_type("a", XF_A)
    MT_B = message_type("b", XF_B)
""")


def rules(source: str) -> list[str]:
    report = lint_source(HEADER + textwrap.dedent(source), "t.py")
    assert report.parse_error is None
    return [v.rule for v in report.violations if not v.suppressed]


class TestDfl002:
    def test_undeclared_emit(self):
        assert rules("""
            class Dev(Listener):
                consumes = (MT_A,)
                emits = ()

                def _on_a(self, frame):
                    self.emit(MT_B, payload=b"")
        """) == ["DFL002"]

    def test_declared_emit_is_fine(self):
        assert rules("""
            class Dev(Listener):
                consumes = (MT_A,)
                emits = (MT_B,)

                def _on_a(self, frame):
                    self.emit(MT_B, payload=b"")
        """) == []

    def test_emits_inherited_from_base(self):
        assert rules("""
            class Base(Listener):
                emits = (MT_B,)

            class Dev(Base):
                consumes = (MT_A,)

                def _on_a(self, frame):
                    self.emit(MT_B, payload=b"")
        """) == []

    def test_unregistered_constant_is_not_judged(self):
        assert rules("""
            class Dev(Listener):
                consumes = (MT_A,)

                def _on_a(self, frame):
                    self.emit(SOMETHING_DYNAMIC, payload=b"")
        """) == []

    def test_empty_contract_class_is_skipped(self):
        # No contract at all: the device is outside the dataflow layer.
        assert rules("""
            class Dev(Listener):
                def _on_a(self, frame):
                    self.emit(MT_B, payload=b"")
        """) == []

    def test_noqa_suppresses(self):
        assert rules("""
            class Dev(Listener):
                consumes = (MT_A,)

                def _on_a(self, frame):
                    self.emit(MT_B, payload=b"")  # repro: noqa DFL002
        """) == []


class TestDfl003:
    def test_stray_bind(self):
        assert rules("""
            class Dev(Listener):
                consumes = (MT_B,)
                emits = ()

                def on_plugin(self):
                    self.bind(XF_A, self._on_a)

                def _on_a(self, frame):
                    frame.release()
        """) == ["DFL003"]

    def test_consumed_bind_is_fine(self):
        assert rules("""
            class Dev(Listener):
                consumes = (MT_A,)

                def on_plugin(self):
                    self.bind(XF_A, self._on_a)

                def _on_a(self, frame):
                    frame.release()
        """) == []

    def test_emitted_bind_is_fine(self):
        # The builder idiom: bind the emitted xfunction for replies.
        assert rules("""
            class Dev(Listener):
                emits = (MT_A,)

                def on_plugin(self):
                    self.bind(XF_A, self._on_reply)

                def _on_reply(self, frame):
                    frame.release()
        """) == []

    def test_int_literal_bind(self):
        assert rules("""
            class Dev(Listener):
                consumes = (MT_B,)

                def on_plugin(self):
                    self.bind(0x0101, self._on_a)

                def _on_a(self, frame):
                    frame.release()
        """) == ["DFL003"]

    def test_xf_with_no_message_type_is_not_judged(self):
        assert rules("""
            XF_HEARTBEAT = 0x0901

            class Dev(Listener):
                consumes = (MT_A,)

                def on_plugin(self):
                    self.bind(XF_HEARTBEAT, self._on_hb)

                def _on_hb(self, frame):
                    frame.release()
        """) == []

    def test_noqa_suppresses(self):
        assert rules("""
            class Dev(Listener):
                consumes = (MT_B,)

                def on_plugin(self):
                    self.bind(XF_A, self._on_a)  # repro: noqa DFL003

                def _on_a(self, frame):
                    frame.release()
        """) == []


class TestNeverBaselined:
    @pytest.mark.parametrize("rule", ["DFL002", "DFL003"])
    def test_policy_refuses(self, rule):
        assert baseline.never_baselined(rule)
