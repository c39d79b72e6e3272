"""Adversarial input: arbitrary bytes must never crash the codecs.

A transport can hand the frame parser anything; the contract is
"return a valid Frame or raise FrameFormatError" — never a different
exception, never a Frame that then misbehaves.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.i2o.errors import AddressingError, FrameFormatError, I2OError
from repro.i2o.frame import (
    _HEADER,
    DEFAULT_PRIORITY,
    FLAG_LAST,
    FLAG_MORE,
    FLAG_REPLY,
    HEADER_SIZE,
    I2O_VERSION,
    Frame,
)
from repro.i2o.function_codes import PRIVATE
from repro.i2o.tid import MAX_TID, TID_BROADCAST
from repro.rmi.marshal import MarshalError, unmarshal
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport
from repro.transports.wire import decode_wire

TARGET_TID = 5
INITIATOR_TID = 6


@given(st.binary(max_size=600))
@settings(max_examples=300, deadline=None)
def test_frame_parse_total(data):
    try:
        frame = Frame.parse(data)
    except FrameFormatError:
        return
    # Anything that parses must be internally consistent and re-serialise.
    assert frame.version == I2O_VERSION
    assert frame.total_size <= len(data) or frame.total_size <= len(
        bytearray(data)
    )
    round_tripped = Frame.parse(frame.tobytes())
    assert round_tripped.same_message(frame)


@given(st.binary(max_size=600))
@settings(max_examples=300, deadline=None)
def test_wire_decode_total(data):
    try:
        src, frame_bytes = decode_wire(data)
    except FrameFormatError:
        return
    assert isinstance(src, int)
    assert len(frame_bytes) >= HEADER_SIZE


@given(st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_unmarshal_total(data):
    try:
        unmarshal(data)
    except MarshalError:
        pass


@given(st.binary(min_size=HEADER_SIZE, max_size=200))
@settings(max_examples=200, deadline=None)
def test_mutated_valid_frame_never_escapes_validation(data):
    """Start from a valid frame, splice in arbitrary bytes: parse
    either rejects or yields a structurally sound frame."""
    base = bytearray(
        Frame.build(target=TARGET_TID, initiator=INITIATOR_TID,
                    payload=b"x" * 64).tobytes()
    )
    splice = min(len(data), len(base))
    base[:splice] = data[:splice]
    try:
        frame = Frame.parse(bytes(base))
    except I2OError:
        return
    assert frame.priority < 7
    assert frame.target <= 0xFFF
    assert frame.payload_size + HEADER_SIZE <= len(base)


# -- the wire door: valid headers with mutated fields -------------------------
#
# A wire delivers bytes into a loaned block (``ingest_loaned``) or as a
# byte string (``ingest_frame_bytes``).  Either door validates once; past
# it, every hop trusts the frame.  So each mutant must be refused there
# with its block returned, or be dispatched or dead-lettered cleanly.

FIELD_MAX = [(1 << (8 * struct.calcsize("<" + code))) - 1
             for code in _HEADER.format.lstrip("<")]
SPECIAL = {  # per header field index, the values next to each bound
    0: [I2O_VERSION], 1: [FLAG_REPLY, FLAG_MORE, FLAG_LAST, 0x10],
    2: [6, 7], 4: [0, 1, MAX_TID, MAX_TID + 1],
    5: [0, TID_BROADCAST, MAX_TID + 1],
}


class _Sink(Listener):
    def on_plugin(self) -> None:
        self.table.bind_default(lambda frame: None)


def _wire_rig():
    network = LoopbackNetwork()
    exes, sinks = [], []
    for node in (0, 1):
        exe = Executive(node=node)
        PeerTransportAgent.attach(exe).register(LoopbackTransport(network),
                                                default=True)
        sinks.append(_Sink())
        exe.install(sinks[-1])
        exes.append(exe)
    return exes, sinks, exes[1].pta.transports()[0]


@st.composite
def _mutated_wire_frame(draw, target: int, initiator: int) -> bytes:
    size = draw(st.integers(0, 96))
    valid = Frame.build(target=target, initiator=initiator, xfunction=1,
                        payload=b"w" * size).tobytes()
    fields = list(_HEADER.unpack_from(valid, 0))
    special = {**SPECIAL, 6: [0, size - 1, size + 1, 1 << 20]}
    for index in draw(st.sets(st.integers(0, 10), min_size=1, max_size=3)):
        fields[index] = draw(st.one_of(st.integers(0, FIELD_MAX[index]),
                                       st.sampled_from(special.get(index, [0]))))
    data = _HEADER.pack(*fields) + valid[HEADER_SIZE:]
    return data[:draw(st.one_of(st.just(len(data)), st.integers(1, len(data))))]


def _pump(exes) -> None:
    while any(exe.step() for exe in exes):
        pass


@pytest.mark.parametrize("door", ["ingest_loaned", "ingest_frame_bytes"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_header_ends_refused_or_delivered(door, data):
    exes, sinks, pt = _wire_rig()
    receiver = exes[1]
    raw = data.draw(_mutated_wire_frame(sinks[1].tid, sinks[0].tid))
    handled = receiver.dispatched + receiver.dropped
    try:
        if door == "ingest_frame_bytes":
            pt.ingest_frame_bytes(0, raw)
        else:
            block = receiver.block_loan(len(raw))
            view = block.memory[: len(raw)]
            view[:] = raw
            pt.ingest_loaned(0, block, view)
    except FrameFormatError:
        assert receiver.pool.in_flight == 0  # the block went back
    except AddressingError:
        # Valid on the wire, but no proxy can stand for the broadcast TiD:
        # the route table refuses it by name, at the same door.
        assert _HEADER.unpack_from(raw, 0)[5] == TID_BROADCAST
        assert receiver.pool.in_flight == 0
    else:
        _pump(exes)
        assert receiver.dispatched + receiver.dropped > handled
    _pump(exes)
    for exe in exes:
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0


@pytest.mark.parametrize("door", ["ingest_loaned", "ingest_frame_bytes"])
def test_a_broadcast_initiator_is_refused_at_the_wire_door(door):
    exes, sinks, pt = _wire_rig()
    # Packed by hand: no door that builds a frame lets this initiator by.
    raw = _HEADER.pack(I2O_VERSION, 0, DEFAULT_PRIORITY, PRIVATE,
                       sinks[1].tid, TID_BROADCAST, 0, 0, 0, 0, 0)
    with pytest.raises(AddressingError, match="broadcast"):
        if door == "ingest_frame_bytes":
            pt.ingest_frame_bytes(0, raw)
        else:
            block = exes[1].block_loan(len(raw))
            block.memory[: len(raw)] = raw
            pt.ingest_loaned(0, block, block.memory[: len(raw)])
    for exe in exes:
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0
