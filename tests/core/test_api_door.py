"""The API door: ``frame_alloc`` checks device code's arguments once,
before the pool loan.

Every frame a device builds comes through ``Executive.frame_alloc`` —
``send``, ``send_into``, ``reply``, ``reply_into`` and ``emit`` via
``Listener._post``.  A refused argument must be refused by name
(``FrameFormatError``, or ``PoolError`` for a size no block holds) and
must leave the pool and the TiD space exactly as they were: an
in-process hop adopts what the door let through without checking it
again, so the door is the only check there is.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.i2o.errors import FrameFormatError
from repro.i2o.frame import _HEADER, MAX_PAYLOAD_SIZE, Frame
from repro.i2o.tid import MAX_TID, TID_BROADCAST
from repro.mem.pool import PoolError
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport

REFUSED = (FrameFormatError, PoolError)
UNKNOWN_TID = 77  # unicast, bound to nothing: a send there dead-letters


class Sink(Listener):
    """Drops what it is sent; the standard handlers answer the rest."""

    def on_plugin(self) -> None:
        self.table.bind_default(lambda frame: None)


def _rig() -> tuple[Executive, Sink]:
    exe = Executive(node=0)
    sink = Sink()
    exe.install(sink)
    return exe, sink


def _state(exe: Executive) -> tuple:
    """What a refusal must leave as it was: the pool, including its
    loan count (the check comes before the loan), and the TiD space."""
    tids = exe.tids
    return (exe.pool.in_flight, exe.pool.stats.allocs, tids._next,
            tuple(tids._free), tids.live)


def _raw_request(**fields: int) -> Frame:
    """A request frame as device code may hold one: decoded from bytes
    that nothing validated, so its fields can be anything the header's
    widths hold."""
    header = dict(version=0x20, flags=0, priority=3, function=0xFF,
                  target=2, initiator=2, payload_size=0, organization=0,
                  xfunction=1, initiator_context=0, transaction_context=0)
    header.update(fields)
    return Frame(bytearray(_HEADER.pack(*header.values())))


def _write(view: memoryview) -> None:
    view[:] = b"\xab" * len(view)


# -- the leak: every refusal used to keep the block it had loaned ---------

REFUSALS = [
    pytest.param(lambda exe, s: exe.frame_alloc(8, target=5000), id="target"),
    pytest.param(lambda exe, s: exe.frame_alloc(8, target=2, initiator=5000),
                 id="initiator"),
    pytest.param(lambda exe, s: exe.frame_alloc(8, target=2,
                                                initiator=TID_BROADCAST),
                 id="broadcast-initiator"),
    pytest.param(lambda exe, s: exe.frame_alloc(8, target=2, function=0x100),
                 id="function"),
    pytest.param(lambda exe, s: exe.frame_alloc(8, target=2, priority=9),
                 id="priority"),
    pytest.param(lambda exe, s: exe.frame_alloc(8, target=2, flags=0x80),
                 id="flags"),
    pytest.param(lambda exe, s: exe.frame_alloc(-10, target=2),
                 id="negative-size"),
    pytest.param(lambda exe, s: s.send(s.tid, b"x", priority=9),
                 id="send-priority"),
    pytest.param(lambda exe, s: s.send_into(5000, 8, _write), id="send_into"),
    pytest.param(lambda exe, s: s.reply(_raw_request(initiator=5000), b"x"),
                 id="reply"),
    pytest.param(lambda exe, s: s.reply_into(_raw_request(priority=200), 4,
                                             _write), id="reply_into"),
]


@pytest.mark.parametrize("call", REFUSALS)
def test_a_refused_argument_holds_no_block(call):
    exe, sink = _rig()
    before = _state(exe)
    with pytest.raises(FrameFormatError):
        call(exe, sink)
    assert _state(exe) == before
    exe.pool.check_conservation()


def test_a_field_that_is_no_int_returns_its_loan():
    """Only struct's pack, after the loan, sees a float: the loan goes
    back before the refusal is raised."""
    exe, _sink = _rig()
    with pytest.raises(FrameFormatError, match="must be ints"):
        exe.frame_alloc(8, target=2, priority=1.5)
    assert exe.pool.in_flight == 0
    exe.pool.check_conservation()


def test_a_negative_payload_size_is_refused_by_name():
    exe, _sink = _rig()
    with pytest.raises(FrameFormatError, match="payload size -10 is negative"):
        exe.frame_alloc(-10, target=2)


def test_a_broadcast_initiator_never_reaches_the_receiving_step():
    """No receiver can proxy the broadcast TiD as a reply address, and
    an in-process hop checks nothing, so the door refuses it: let by,
    it escaped the receiving executive's ``step()`` as
    ``AddressingError``."""
    network = LoopbackNetwork()
    exes = [Executive(node=node) for node in (0, 1)]
    for exe in exes:
        PeerTransportAgent.attach(exe).register(LoopbackTransport(network),
                                                default=True)
    sink = Sink()
    exes[1].install(sink)
    proxy = exes[0].routes.create_proxy(1, sink.tid)
    with pytest.raises(FrameFormatError, match="initiator"):
        exes[0].frame_send(
            exes[0].frame_alloc(4, target=proxy, initiator=TID_BROADCAST))
    while any(exe.step() for exe in exes):
        pass
    for exe in exes:
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0


# -- the corpus: valid calls with one or two arguments mutated --------------

@st.composite
def mutated(draw, fields: dict) -> dict:
    """Keyword arguments: every field valid except one or two, drawn
    from their field's mutants (the method of ``TestHostileAcks``).  A
    mutant of a masked field is still valid, so calls succeed too."""
    bad = draw(st.sets(st.sampled_from(sorted(fields)), min_size=1, max_size=2))
    return {name: draw(fields[name][name in bad]) for name in fields}


def _field(valid: st.SearchStrategy, *mutants: st.SearchStrategy) -> tuple:
    return valid, st.one_of(*mutants)


TID = _field(st.sampled_from(["sink", UNKNOWN_TID]),
             st.integers(MAX_TID + 1, 1 << 20), st.integers(-(1 << 20), -1))
WIDE = st.integers(-(1 << 70), 1 << 70)  # masked fields: any int is fine
HEADER_FIELDS = {
    "function": _field(st.sampled_from([0xFF, 0x00]),
                       st.integers(0x100, 1 << 12), st.integers(-9, -1)),
    "priority": _field(st.integers(0, 6), st.integers(7, 1 << 10),
                       st.integers(-9, -1)),
    "xfunction": (WIDE, WIDE),
    "organization": (WIDE, WIDE),
    "initiator_context": (WIDE, WIDE),
    "transaction_context": (WIDE, WIDE),
}
SIZE = _field(st.integers(0, 256), st.integers(-(1 << 20), -1),
              st.sampled_from([MAX_PAYLOAD_SIZE + 1, 1 << 31, 1 << 40]))
FRAME_ALLOC = {
    **HEADER_FIELDS, "target": TID, "size": SIZE,
    "initiator": _field(st.sampled_from(["sink", 0]),
                        st.integers(MAX_TID + 1, 1 << 20), st.integers(-9, -1)),
    "flags": _field(st.sampled_from([0, 0x1, 0x4, 0x8, 0x3]),
                    st.integers(0x10, 0xFF), st.integers(1 << 8, 1 << 12)),
}
SEND = {**HEADER_FIELDS, "target": TID,
        "size": (st.integers(0, 256), st.integers(0, 256))}
SEND_INTO = {**HEADER_FIELDS, "target": TID, "size": SIZE}
U8, U16 = st.integers(0, 0xFF), st.integers(0, 0xFFFF)
REPLY = {  # the request's fields, as its header's widths hold them
    "initiator": (st.just("sink"), st.integers(MAX_TID + 1, 0xFFFF)),
    "priority": (st.integers(0, 6), st.integers(7, 0xFF)),
    "function": (U8, U8), "xfunction": (U16, U16), "organization": (U16, U16),
    "initiator_context": (st.just(0), st.integers(0, (1 << 64) - 1)),
    "transaction_context": (st.just(0), st.integers(0, (1 << 64) - 1)),
}
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def _tid(value, sink: Sink) -> int:
    return sink.tid if value == "sink" else value


def _outcome(exe: Executive, call) -> Frame | None:
    """Run one call: a refusal must change nothing."""
    before = _state(exe)
    try:
        return call()
    except REFUSED:
        assert _state(exe) == before
        exe.pool.check_conservation()
        return None


def _settle(exe: Executive) -> None:
    exe.run_until_idle()
    exe.pool.check_conservation()
    assert exe.pool.in_flight == 0


@SETTINGS
@given(args=mutated(FRAME_ALLOC))
def test_frame_alloc_corpus(args):
    exe, sink = _rig()
    size, target, initiator = args.pop("size"), args.pop("target"), args.pop("initiator")
    frame = _outcome(exe, lambda: exe.frame_alloc(
        size, target=_tid(target, sink), initiator=_tid(initiator, sink), **args))
    if frame is not None:
        assert frame.header_fields() == _HEADER.unpack_from(frame.view, 0)
        exe.frame_free(frame)
    _settle(exe)


@SETTINGS
@given(args=mutated(SEND))
def test_send_corpus(args):
    exe, sink = _rig()
    size, target = args.pop("size"), args.pop("target")
    _outcome(exe, lambda: sink.send(_tid(target, sink), b"p" * size, **args))
    _settle(exe)


@SETTINGS
@given(args=mutated(SEND_INTO))
def test_send_into_corpus(args):
    exe, sink = _rig()
    size, target = args.pop("size"), args.pop("target")
    _outcome(exe, lambda: sink.send_into(_tid(target, sink), size, _write,
                                         **args))
    _settle(exe)


@SETTINGS
@given(args=mutated(REPLY), size=st.integers(0, 64), fail=st.booleans())
def test_reply_corpus(args, size, fail):
    exe, sink = _rig()
    request = _raw_request(**{**args, "initiator": _tid(args["initiator"], sink)})
    _outcome(exe, lambda: sink.reply(request, b"r" * size, fail=fail))
    _settle(exe)
