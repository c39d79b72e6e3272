"""Wire encapsulation."""

from __future__ import annotations

import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.i2o.errors import FrameFormatError
from repro.i2o.frame import HEADER_SIZE, Frame
from repro.transports.wire import (
    WIRE_HEADER_SIZE,
    WIRE_MAGIC,
    decode_wire,
    encode_wire,
    encode_wire_parts,
    parse_wire_header,
)

from tests.transports.harness import (
    Keeper,
    dial_raw,
    hung_up,
    make_lone_tcp,
    step_until,
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
# A stream transport re-frames on the wire header: ``parse_wire_header``
# checks it, then the frame is read straight into a loaned pool block.
# The re-framer under test is ``TcpTransport``'s, fed by a raw client.


@pytest.fixture
def stream():
    exe, pt = make_lone_tcp()
    keeper = Keeper()
    tid = exe.install(keeper)
    raw = dial_raw(pt)
    yield exe, pt, keeper, tid, raw
    raw.close()
    pt.shutdown()
    exe.pool.check_conservation()
    assert exe.pool.in_flight == 0


@pytest.mark.parametrize("chunk", [1, 5, 1024])
def test_reframe_stream(stream, chunk):
    """However the bytes are cut — one at a time included — the frame
    is delivered once, intact, with the one copy off the wire."""
    exe, pt, keeper, tid, raw = stream
    f = Frame.build(target=tid, initiator=INITIATOR_TID,
                    payload=b"stream me" * 20, xfunction=0x1)
    data = encode_wire(6, f)
    for start in range(0, len(data), chunk):
        raw.sendall(data[start:start + chunk])
        exe.run_until_idle()
    assert step_until(exe, lambda: keeper.payloads)
    assert keeper.payloads == [b"stream me" * 20]
    assert (pt.frames_received, pt.rx_copies) == (1, 1)


def test_reframe_clean_eof_returns_none(stream, caplog):
    """EOF at a message boundary is a goodbye: the connection closes
    without a warning and nothing is delivered."""
    exe, pt, keeper, _tid, raw = stream
    with caplog.at_level("WARNING"):
        raw.shutdown(socket.SHUT_WR)
        assert step_until(exe, lambda: hung_up(raw))
    assert caplog.records == [] and keeper.payloads == []


def test_reframe_eof_mid_header_raises():
    data = encode_wire(1, frame())[:6]
    with pytest.raises(FrameFormatError, match="mid wire header"):
        parse_wire_header(data)


def test_reframe_bad_magic_raises():
    data = bytearray(encode_wire(1, frame()))
    data[1] ^= 0xFF
    with pytest.raises(FrameFormatError, match="magic"):
        parse_wire_header(data)


def test_reframe_implausible_length_raises():
    data = struct.pack("<III", WIRE_MAGIC, 0, 5)  # < HEADER_SIZE
    with pytest.raises(FrameFormatError, match="implausible"):
        parse_wire_header(data)


def test_recv_into_exact_eof_mid_frame(stream, caplog):
    """A stream that ends inside the frame gives the loaned block back."""
    exe, pt, keeper, tid, raw = stream
    f = Frame.build(target=tid, initiator=INITIATOR_TID, payload=b"cut short")
    raw.sendall(encode_wire(1, f)[: WIRE_HEADER_SIZE + 10])
    assert step_until(exe, lambda: exe.pool.in_flight == 1)
    with caplog.at_level("WARNING"):
        raw.shutdown(socket.SHUT_WR)
        assert step_until(exe, lambda: hung_up(raw))
    assert exe.pool.in_flight == 0 and keeper.payloads == []
    assert "closed mid-frame" in caplog.text
