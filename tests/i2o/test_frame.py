"""Frame codec: layout, validation, zero-copy semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.i2o.errors import FrameFormatError
from repro.i2o.frame import (
    FLAG_FAIL,
    FLAG_LAST,
    FLAG_MORE,
    FLAG_REPLY,
    HEADER_SIZE,
    I2O_VERSION,
    MAX_PAYLOAD_SIZE,
    NUM_PRIORITIES,
    Frame,
)
from repro.i2o.function_codes import PRIVATE, UTIL_NOP
from repro.i2o.tid import TID_BROADCAST

TARGET_TID = 5
INITIATOR_TID = 17
WIDE_TARGET_TID = 0xABC
WIDE_INITIATOR_TID = 0x123
OUT_OF_RANGE_TID = 0x1000  # one past the 12-bit TiD space


def build(**overrides):
    kwargs = dict(target=TARGET_TID, initiator=INITIATOR_TID, payload=b"hello")
    kwargs.update(overrides)
    return Frame.build(**kwargs)


class TestBuild:
    def test_header_size_is_32(self):
        assert HEADER_SIZE == 32

    def test_defaults(self):
        frame = build()
        assert frame.version == I2O_VERSION
        assert frame.function == PRIVATE
        assert frame.target == TARGET_TID
        assert frame.initiator == INITIATOR_TID
        assert frame.payload_size == 5
        assert bytes(frame.payload) == b"hello"
        assert frame.priority == 3
        assert frame.flags == 0
        assert frame.total_size == HEADER_SIZE + 5

    def test_all_fields_round_trip(self):
        frame = Frame.build(
            target=WIDE_TARGET_TID,
            initiator=WIDE_INITIATOR_TID,
            function=UTIL_NOP,
            payload=b"x" * 100,
            priority=6,
            flags=FLAG_REPLY | FLAG_FAIL,
            organization=0xCE12,
            xfunction=0x4242,
            initiator_context=2**60,
            transaction_context=2**63 + 5,
        )
        assert frame.target == WIDE_TARGET_TID
        assert frame.initiator == WIDE_INITIATOR_TID
        assert frame.function == UTIL_NOP
        assert frame.priority == 6
        assert frame.is_reply and frame.is_failure
        assert frame.organization == 0xCE12
        assert frame.xfunction == 0x4242
        assert frame.initiator_context == 2**60
        assert frame.transaction_context == 2**63 + 5

    def test_empty_payload(self):
        frame = build(payload=b"")
        assert frame.payload_size == 0
        assert frame.total_size == HEADER_SIZE

    def test_oversized_payload_rejected(self):
        with pytest.raises(FrameFormatError, match="one-block limit"):
            Frame.build(target=TARGET_TID, initiator=INITIATOR_TID,
                        payload=b"x" * (MAX_PAYLOAD_SIZE + 1))

    def test_bad_tid_rejected(self):
        with pytest.raises(FrameFormatError):
            build(target=OUT_OF_RANGE_TID)
        with pytest.raises(FrameFormatError):
            build(initiator=-1)
        # The broadcast TiD addresses but never originates.
        with pytest.raises(FrameFormatError):
            build(initiator=TID_BROADCAST)
        frame = build()
        with pytest.raises(FrameFormatError):
            frame.initiator = TID_BROADCAST
        assert frame.initiator == INITIATOR_TID
        with pytest.raises(FrameFormatError, match="out of range"):
            frame.target = OUT_OF_RANGE_TID
        with pytest.raises(FrameFormatError, match="out of range"):
            frame.target = -1
        assert frame.target == TARGET_TID

    def test_bad_priority_rejected(self):
        with pytest.raises(FrameFormatError):
            build(priority=NUM_PRIORITIES)

    def test_unknown_flags_rejected(self):
        with pytest.raises(FrameFormatError):
            build(flags=0x80)

    def test_payload_must_fit_supplied_buffer(self):
        with pytest.raises(FrameFormatError):
            Frame.build(
                target=TARGET_TID, initiator=INITIATOR_TID, payload=b"x" * 50,
                buffer=bytearray(HEADER_SIZE + 10),
            )

    def test_buffer_too_small_for_header(self):
        with pytest.raises(FrameFormatError):
            Frame(bytearray(HEADER_SIZE - 1))

    def test_readonly_buffer_rejected(self):
        with pytest.raises(FrameFormatError):
            Frame(memoryview(bytearray(64)).toreadonly())


class TestWireRoundTrip:
    def test_tobytes_parse_identity(self):
        frame = build(payload=b"payload bytes", xfunction=0x77)
        parsed = Frame.parse(frame.tobytes())
        assert parsed.same_message(frame)

    def test_parse_validates(self):
        data = bytearray(build().tobytes())
        data[0] = 0x99  # bad version
        with pytest.raises(FrameFormatError):
            Frame.parse(data)

    def test_parse_rejects_overrun_declared_size(self):
        data = bytearray(build(payload=b"abc").tobytes())
        data[8:12] = (10_000).to_bytes(4, "little")
        with pytest.raises(FrameFormatError):
            Frame.parse(data)

    @given(
        target=st.integers(0, 0xFFF),
        initiator=st.integers(0, TID_BROADCAST - 1),
        function=st.sampled_from([PRIVATE, UTIL_NOP, 0xA0]),
        xfunction=st.integers(0, 0xFFFF),
        priority=st.integers(0, 6),
        flags=st.sampled_from([0, FLAG_REPLY, FLAG_MORE, FLAG_LAST,
                               FLAG_REPLY | FLAG_FAIL]),
        organization=st.integers(0, 0xFFFF),
        ictx=st.integers(0, 2**64 - 1),
        tctx=st.integers(0, 2**64 - 1),
        payload=st.binary(max_size=512),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_codec_round_trip(
        self, target, initiator, function, xfunction, priority, flags,
        organization, ictx, tctx, payload,
    ):
        frame = Frame.build(
            target=target, initiator=initiator, function=function,
            xfunction=xfunction, priority=priority, flags=flags,
            organization=organization, initiator_context=ictx,
            transaction_context=tctx, payload=payload,
        )
        parsed = Frame.parse(frame.tobytes())
        assert parsed.target == target
        assert parsed.initiator == initiator
        assert parsed.function == function
        assert parsed.priority == priority
        assert parsed.flags == flags
        assert parsed.organization == organization
        assert parsed.initiator_context == ictx
        assert parsed.transaction_context == tctx
        assert bytes(parsed.payload) == payload
        if function == PRIVATE:
            assert parsed.xfunction == xfunction


class TestZeroCopy:
    def test_payload_is_view_not_copy(self):
        backing = bytearray(HEADER_SIZE + 4)
        frame = Frame.build(target=TARGET_TID, initiator=INITIATOR_TID,
                            payload=b"abcd", buffer=backing)
        frame.payload[0] = ord("Z")
        assert backing[HEADER_SIZE] == ord("Z")

    def test_mutating_target_in_place(self):
        frame = build()
        frame.target = 0x200
        assert frame.target == 0x200
        assert Frame.parse(frame.tobytes()).target == 0x200

    def test_setters_validate(self):
        frame = build()
        with pytest.raises(FrameFormatError):
            frame.target = 0x1001
        with pytest.raises(FrameFormatError):
            frame.priority = 7
        with pytest.raises(FrameFormatError):
            frame.flags = 0xF0

    def test_context_setters_mask_to_64_bits(self):
        frame = build()
        frame.initiator_context = 2**64 + 3
        assert frame.initiator_context == 3
