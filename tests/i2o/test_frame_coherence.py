"""The header-cache coherence contract of :class:`repro.i2o.frame.Frame`.

The buffer is the wire truth, the slots are its decoded copy: setters
write through to both, ``validate()`` resynchronises the slots from the
buffer, and nothing else may write header bytes behind a live frame.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitize import SanitizingTableAllocator, UseAfterFreeError
from repro.core.device import RETAIN, Listener
from repro.core.executive import Executive
from repro.i2o.errors import FrameFormatError
from repro.i2o.frame import (
    FLAG_FAIL,
    FLAG_LAST,
    FLAG_MORE,
    FLAG_REPLY,
    HEADER_SIZE,
    NUM_PRIORITIES,
    Frame,
)
from repro.i2o.tid import MAX_TID, TID_BROADCAST
from repro.mem.pool import BufferPool
from repro.transports.base import PeerTransport

GETTERS = (
    "version", "flags", "priority", "function", "target", "initiator",
    "payload_size", "organization", "xfunction", "initiator_context",
    "transaction_context",
)  # in header_fields() order

tids = st.integers(min_value=0, max_value=MAX_TID)
# the broadcast TiD addresses but never originates
initiators = st.integers(min_value=0, max_value=TID_BROADCAST - 1)
flag_sets = st.integers(
    min_value=0, max_value=FLAG_REPLY | FLAG_FAIL | FLAG_MORE | FLAG_LAST
)
priorities = st.integers(min_value=0, max_value=NUM_PRIORITIES - 1)
u16 = st.integers(min_value=0, max_value=0xFFFF)
# wider than 64 bits: the setters mask, and the slot must hold the
# masked value the buffer holds
contexts = st.integers(min_value=0, max_value=(1 << 70) - 1)
PAYLOAD_ROOM = 48
TARGET_TID = 5
INITIATOR_TID = 17
REMOTE_TID = 40  # the sending device's TiD on its own node


def headers():
    return st.fixed_dictionaries({
        "target": tids,
        "initiator": initiators,
        "function": st.integers(min_value=0, max_value=0xFF),
        "payload_size": st.integers(min_value=0, max_value=PAYLOAD_ROOM),
        "priority": priorities,
        "flags": flag_sets,
        "organization": u16,
        "xfunction": u16,
        "initiator_context": contexts,
        "transaction_context": contexts,
    })


setter_calls = st.one_of(
    st.tuples(st.just("flags"), flag_sets),
    st.tuples(st.just("priority"), priorities),
    st.tuples(st.just("target"), tids),
    st.tuples(st.just("initiator"), initiators),
    st.tuples(st.just("initiator_context"), contexts),
    st.tuples(st.just("transaction_context"), contexts),
    st.tuples(st.just("put_header"), headers()),
)


def getters(frame: Frame) -> tuple:
    return tuple(getattr(frame, name) for name in GETTERS)


def assert_coherent(frame: Frame, buffer: bytearray) -> None:
    seen = getters(frame)
    assert seen == frame.header_fields()
    assert seen == getters(Frame(buffer))
    reparsed = Frame.parse(frame.tobytes())
    assert getters(reparsed) == seen
    assert reparsed.same_message(frame)


@given(first=headers(), calls=st.lists(setter_calls, max_size=12))
@settings(max_examples=200, deadline=None)
def test_slots_and_buffer_agree_after_any_setter_sequence(first, calls):
    buffer = bytearray(HEADER_SIZE + PAYLOAD_ROOM)
    frame = Frame(buffer)
    frame.put_header(**first)
    assert_coherent(frame, buffer)
    for name, value in calls:
        if name == "put_header":
            frame.put_header(**value)
        else:
            setattr(frame, name, value)
        assert_coherent(frame, buffer)


class TestBytesWrittenBehindALiveFrame:
    def test_invisible_until_validate_then_visible(self):
        buffer = bytearray(HEADER_SIZE + 8)
        frame = Frame.build(target=TARGET_TID, initiator=INITIATOR_TID,
                            payload=b"x" * 8, buffer=buffer)
        buffer[4:6] = (0x234).to_bytes(2, "little")  # a valid other target
        buffer[2] = 6
        assert (frame.target, frame.priority) == (TARGET_TID, 3)
        assert frame.validate() is frame
        assert (frame.target, frame.priority) == (0x234, 6)

    @pytest.mark.parametrize(
        "offset, byte, match",
        [
            (0, 0x10, "bad version"),
            (1, 0xF0, "unknown flag bits"),
            (2, NUM_PRIORITIES, "priority"),
            (5, 0x10, "TiD out of 12-bit range"),
            (10, 0x01, "overruns buffer"),
        ],
    )
    def test_hostile_bytes_are_refused_at_validate(self, offset, byte, match):
        buffer = bytearray(HEADER_SIZE)
        frame = Frame.build(target=TARGET_TID, initiator=INITIATOR_TID,
                            buffer=buffer)
        before = getters(frame)
        buffer[offset] = byte
        assert getters(frame) == before
        with pytest.raises(FrameFormatError, match=match):
            frame.validate()


class Keeper(Listener):
    def __init__(self) -> None:
        super().__init__("keeper")
        self.kept: list[Frame] = []

    def on_plugin(self) -> None:
        self.table.bind_default(self._keep)

    def _keep(self, frame: Frame):
        self.kept.append(frame)
        return RETAIN


def _receiver() -> tuple[Executive, PeerTransport, Keeper]:
    exe = Executive(node=1)
    pt = PeerTransport("pt")
    exe.install(pt)
    keeper = Keeper()
    exe.install(keeper)
    return exe, pt, keeper


OLD = dict(function=0x10, xfunction=0, priority=1, flags=FLAG_REPLY,
           initiator_context=0x1111, transaction_context=0x2222)
NEW = dict(function=0xFF, xfunction=0xBEEF, priority=5, flags=FLAG_MORE,
           initiator_context=0x3333, transaction_context=0x4444)


class TestIngestOverARecycledBlock:
    """The block a new frame arrives in last carried a different
    header; what is delivered is decoded from the bytes now in it."""

    def _check(self, exe: Executive, keeper: Keeper, pt: PeerTransport):
        exe.run_until_idle()
        (frame,) = keeper.kept
        assert frame.target == keeper.tid
        assert frame.initiator == exe.routes.create_proxy(
            0, REMOTE_TID, transport=pt.name)
        assert bytes(frame.payload) == b"n" * 24
        for name, value in NEW.items():
            assert getattr(frame, name) == value
        assert getters(frame) == getters(Frame(bytearray(frame.view)))
        exe.frame_free(frame)
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0

    def test_ingest_into(self):
        exe, pt, keeper = _receiver()
        old = exe.frame_alloc(24, target=keeper.tid, initiator=pt.tid, **OLD)
        recycled = old.block
        exe.frame_free(old)
        wire = Frame.build(target=keeper.tid, initiator=REMOTE_TID,
                           payload=b"n" * 24, **NEW).tobytes()
        delivered = pt.ingest_frame_bytes(0, wire)
        assert delivered.block is recycled
        self._check(exe, keeper, pt)

    def test_ingest_block(self):
        exe, pt, keeper = _receiver()
        sender = Executive(node=0)
        sender_pt = PeerTransport("pt")
        sender.install(sender_pt)
        old = sender.frame_alloc(24, target=TARGET_TID, **OLD)
        recycled = old.block
        sender.frame_free(old)
        new = sender.frame_alloc(
            24, target=keeper.tid, initiator=REMOTE_TID, **NEW)
        assert new.block is recycled
        new.payload[:] = b"n" * 24
        pt.ingest_staged(sender_pt.make_handoff(new))
        self._check(exe, keeper, pt)
        sender.pool.check_conservation()


def test_setter_on_a_freed_frame_trips_the_canary():
    """Write-through keeps the sanitizer's view: a stale setter call
    lands in the poisoned block and is reported, with the site of the
    free, when the block is next loaned out."""
    exe = Executive(pool=BufferPool(SanitizingTableAllocator()))
    frame = exe.frame_alloc(16, target=TARGET_TID)
    exe.frame_free(frame)
    frame.priority = 1  # the use-after-free write  # repro: noqa OWN001
    with pytest.raises(UseAfterFreeError, match="canary") as exc:
        exe.frame_alloc(16, target=TARGET_TID)
    assert "freed:" in str(exc.value)
    assert "test_frame_coherence" in str(exc.value)
