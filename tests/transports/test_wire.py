"""Wire encapsulation."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.i2o.errors import FrameFormatError
from repro.i2o.frame import HEADER_SIZE, Frame
from repro.transports.wire import (
    WIRE_HEADER_SIZE,
    decode_wire,
    encode_wire,
    encode_wire_parts,
    read_wire_header,
    recv_into_exact,
)


TARGET_TID = 3
INITIATOR_TID = 4


def frame(payload=b"data"):
    return Frame.build(target=TARGET_TID, initiator=INITIATOR_TID,
                       payload=payload, xfunction=0x10)


def test_round_trip():
    f = frame()
    src, body = decode_wire(encode_wire(7, f))
    assert src == 7
    assert Frame.parse(body).same_message(f)


def test_header_size():
    assert WIRE_HEADER_SIZE == 12
    assert len(encode_wire(0, frame(b""))) == 12 + 32


def test_bad_magic_rejected():
    data = bytearray(encode_wire(1, frame()))
    data[0] ^= 0xFF
    with pytest.raises(FrameFormatError, match="magic"):
        decode_wire(data)


def test_truncated_rejected():
    data = encode_wire(1, frame())
    with pytest.raises(FrameFormatError):
        decode_wire(data[:-1])


def test_trailing_garbage_rejected():
    data = encode_wire(1, frame()) + b"extra"
    with pytest.raises(FrameFormatError, match="disagrees"):
        decode_wire(data)


def test_too_short_rejected():
    with pytest.raises(FrameFormatError, match="short"):
        decode_wire(b"xy")


@given(src=st.integers(0, 2**32 - 1), payload=st.binary(max_size=300))
@settings(max_examples=60, deadline=None)
def test_property_round_trip(src, payload):
    f = frame(payload)
    got_src, body = decode_wire(encode_wire(src, f))
    assert got_src == src
    assert Frame.parse(body).same_message(f)


# -- scatter-gather forms ---------------------------------------------------


def test_parts_equal_flat_encoding():
    f = frame(b"iovec me")
    header, body = encode_wire_parts(9, f)
    assert isinstance(body, memoryview)
    assert header + bytes(body) == encode_wire(9, f)


def test_parts_body_aliases_frame_buffer():
    f = frame(b"alias")
    _, body = encode_wire_parts(1, f)
    f.payload[0] = ord(b"A")
    assert bytes(body[-5:]) == b"Alias"


def test_decode_returns_zero_copy_view():
    data = bytearray(encode_wire(2, frame(b"view")))
    _, body = decode_wire(data)
    assert isinstance(body, memoryview)
    data[WIRE_HEADER_SIZE + HEADER_SIZE] ^= 0xFF  # mutates through
    assert body[HEADER_SIZE] == data[WIRE_HEADER_SIZE + HEADER_SIZE]


# -- streaming re-framer ----------------------------------------------------


def _chunked_reader(data: bytes, chunk: int):
    """A recv_into-shaped reader that returns at most ``chunk`` bytes
    per call — simulates TCP delivering a message in pieces."""
    stream = io.BytesIO(data)

    def recv_into(view: memoryview) -> int:
        return stream.readinto(view[: min(len(view), chunk)])

    return recv_into


@pytest.mark.parametrize("chunk", [1, 5, 1024])
def test_reframe_stream(chunk):
    f = frame(b"stream me")
    reader = _chunked_reader(encode_wire(6, f), chunk)
    src, length = read_wire_header(reader)
    assert src == 6
    assert length == f.total_size
    sink = bytearray(length)
    assert recv_into_exact(reader, memoryview(sink))
    assert Frame.parse(sink).same_message(f)


def test_reframe_clean_eof_returns_none():
    assert read_wire_header(_chunked_reader(b"", 64)) is None


def test_reframe_eof_mid_header_raises():
    data = encode_wire(1, frame())[:6]
    with pytest.raises(FrameFormatError, match="mid wire header"):
        read_wire_header(_chunked_reader(data, 4))


def test_reframe_bad_magic_raises():
    data = bytearray(encode_wire(1, frame()))
    data[1] ^= 0xFF
    with pytest.raises(FrameFormatError, match="magic"):
        read_wire_header(_chunked_reader(bytes(data), 64))


def test_reframe_implausible_length_raises():
    import struct

    data = struct.pack("<III", 0x58444151, 0, 5)  # < HEADER_SIZE
    with pytest.raises(FrameFormatError, match="implausible"):
        read_wire_header(_chunked_reader(data, 64))


def test_recv_into_exact_eof_mid_frame():
    f = frame(b"cut short")
    data = encode_wire(1, f)[: WIRE_HEADER_SIZE + 10]
    reader = _chunked_reader(data, 64)
    src, length = read_wire_header(reader)
    sink = bytearray(length)
    assert not recv_into_exact(reader, memoryview(sink))
