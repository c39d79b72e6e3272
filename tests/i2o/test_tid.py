"""TiD allocation: uniqueness, recycling, reservations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.i2o.errors import AddressingError
from repro.i2o.tid import (
    EXECUTIVE_TID,
    FIRST_DYNAMIC_TID,
    MAX_TID,
    PTA_TID,
    TID_BROADCAST,
    TidAllocator,
    check_tid,
)


class TestCheckTid:
    def test_valid_range(self):
        assert check_tid(0) == 0
        assert check_tid(MAX_TID - 1) == MAX_TID - 1

    def test_out_of_range(self):
        with pytest.raises(AddressingError):
            check_tid(MAX_TID + 1)
        with pytest.raises(AddressingError):
            check_tid(-1)

    def test_broadcast_refused(self):
        with pytest.raises(AddressingError, match="broadcast"):
            check_tid(TID_BROADCAST)

    def test_bool_is_not_a_tid(self):
        with pytest.raises(AddressingError):
            check_tid(True)

    def test_well_known_values(self):
        assert EXECUTIVE_TID == 0
        assert PTA_TID == 1
        assert TID_BROADCAST == MAX_TID == 0xFFF


class TestAllocator:
    def test_first_allocation(self):
        assert TidAllocator().allocate() == FIRST_DYNAMIC_TID

    def test_allocations_unique(self):
        alloc = TidAllocator()
        tids = {alloc.allocate() for _ in range(100)}
        assert len(tids) == 100

    def test_release_recycles(self):
        alloc = TidAllocator()
        tid = alloc.allocate()
        alloc.release(tid)
        assert alloc.allocate() == tid

    def test_release_unknown_raises(self):
        with pytest.raises(AddressingError):
            TidAllocator().release(999)

    def test_double_release_raises(self):
        alloc = TidAllocator()
        tid = alloc.allocate()
        alloc.release(tid)
        with pytest.raises(AddressingError):
            alloc.release(tid)

    def test_reserve_well_known(self):
        alloc = TidAllocator()
        assert alloc.reserve(EXECUTIVE_TID) == 0
        assert alloc.reserve(PTA_TID) == 1
        with pytest.raises(AddressingError):
            alloc.reserve(PTA_TID)  # already live

    def test_reserve_ahead_burns_gap(self):
        alloc = TidAllocator()
        alloc.reserve(100)
        seen = {alloc.allocate() for _ in range(200)}
        assert 100 not in seen

    def test_exhaustion(self):
        alloc = TidAllocator(first=TID_BROADCAST - 2)
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(AddressingError):
            alloc.allocate()

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_property_never_hand_out_live_tid(self, ops):
        """Random allocate/release interleavings never duplicate a
        live TiD."""
        alloc = TidAllocator()
        live: list[int] = []
        for do_alloc in ops:
            if do_alloc or not live:
                tid = alloc.allocate()
                assert tid not in live
                live.append(tid)
            else:
                alloc.release(live.pop())
        assert alloc.live == frozenset(live)
