"""Dispatch tables and functors."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispatcher import DispatchError, DispatchTable, Functor
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.function_codes import PRIVATE, UTIL_NOP, UTIL_PARAMS_GET

TARGET_TID = 1
INITIATOR_TID = 2


def private_frame(xfunction: int) -> Frame:
    return Frame.build(target=TARGET_TID, initiator=INITIATOR_TID,
                       function=PRIVATE, xfunction=xfunction)


def util_frame() -> Frame:
    return Frame.build(target=TARGET_TID, initiator=INITIATOR_TID,
                       function=UTIL_NOP)


class TestBinding:
    def test_bind_and_lookup_private(self):
        table = DispatchTable("dev")
        hits = []
        table.bind(PRIVATE, hits.append, xfunction=0x10)
        functor = table.lookup(private_frame(0x10))
        frame = private_frame(0x10)
        functor.prepare(frame)(frame)
        assert len(hits) == 1

    def test_bind_and_lookup_standard(self):
        table = DispatchTable()
        table.bind(UTIL_NOP, lambda f: "nop")
        assert table.lookup(util_frame()).handler(util_frame()) == "nop"

    def test_xfunction_discriminates_private_only(self):
        table = DispatchTable()
        with pytest.raises(I2OError):
            table.bind(UTIL_NOP, lambda f: None, xfunction=5)

    def test_rebinding_replaces(self):
        table = DispatchTable()
        table.bind(PRIVATE, lambda f: "old", xfunction=1)
        table.bind(PRIVATE, lambda f: "new", xfunction=1)
        assert len(table) == 1
        assert table.lookup(private_frame(1)).handler(None) == "new"

    def test_non_callable_rejected(self):
        with pytest.raises(I2OError):
            Functor("not callable", (0, 0))  # type: ignore[arg-type]


class TestDefaults:
    def test_no_handler_no_default_raises(self):
        with pytest.raises(DispatchError, match="no handler"):
            DispatchTable("dev").lookup(private_frame(0x99))

    def test_default_catches_unbound(self):
        table = DispatchTable()
        caught = []
        table.bind_default(caught.append)
        functor = table.lookup(private_frame(0x99))
        frame = private_frame(0x99)
        functor.prepare(frame)(frame)
        assert len(caught) == 1

    def test_exact_binding_beats_default(self):
        table = DispatchTable()
        table.bind_default(lambda f: "default")
        table.bind(PRIVATE, lambda f: "exact", xfunction=1)
        assert table.lookup(private_frame(1)).handler(None) == "exact"


class TestFunctorPrepare:
    def test_prepare_counts_calls(self):
        table = DispatchTable()
        functor = table.bind(PRIVATE, lambda f: None, xfunction=3)
        functor.prepare(private_frame(3))
        functor.prepare(private_frame(3))
        assert functor.calls == 2

    def test_prepare_returns_bound_handler_without_applying_it(self):
        table = DispatchTable()
        got = []
        functor = table.bind(PRIVATE, got.append, xfunction=3)
        handler = functor.prepare(private_frame(3))
        assert handler == got.append
        assert got == []  # prepare hands the handler back; it does not apply
        assert functor.calls == 1


FUNCTIONS = st.sampled_from([PRIVATE, UTIL_NOP, UTIL_PARAMS_GET])
XFUNCTIONS = st.integers(0, 4)


class TestLookup:
    """``prepare`` does not re-compare the key, so ``lookup`` alone
    guarantees a handler sees only frames of its binding."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        bound=st.sets(st.tuples(FUNCTIONS, XFUNCTIONS), max_size=6),
        with_default=st.booleans(),
        function=FUNCTIONS,
        xfunction=XFUNCTIONS,
    )
    def test_lookup_finds_exact_key_or_default(
        self, bound, with_default, function, xfunction
    ):
        table = DispatchTable("dev")
        for func, xfunc in bound:
            table.bind(func, lambda f: None,
                       xfunction=xfunc if func == PRIVATE else 0)
        if with_default:
            table.bind_default(lambda f: None)
        frame = Frame.build(target=TARGET_TID, initiator=INITIATOR_TID,
                            function=function, xfunction=xfunction)
        key = (function, xfunction if function == PRIVATE else 0)
        exact = {(f, x if f == PRIVATE else 0) for f, x in bound}
        if key not in exact and not with_default:
            with pytest.raises(DispatchError, match="no handler"):
                table.lookup(frame)
            return
        functor = table.lookup(frame)
        if key in exact:
            assert functor.key == key
        else:
            assert functor is table.default
