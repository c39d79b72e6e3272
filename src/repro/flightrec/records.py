"""The flight-recorder record codec: one packed layout for every event.

A flight-recorder record is a fixed 48-byte packed struct — small
enough that a bounded ring of a few thousand records costs a couple
hundred kilobytes per node, fixed-size so the ring can be preallocated
once and written with ``pack_into`` (no per-event allocation on the
hot path)::

    offset  size  field
    ------  ----  ---------------------------------------------------
       0      8   seq     monotonically increasing record number
       8      8   t_ns    clock reading (executive clock domain)
      16      8   a       event argument (see ARGUMENTS)
      24      8   b       event argument
      32      8   c       event argument
      40      1   kind    event kind (EV_*)
      41      7   d       event argument, 56 bits (zero for most kinds)

The last word is packed as ``kind | d << 8``.  What ``a``/``b``/``c``/``d``
mean for each kind — the contract every record
site, the decoder and the timeline merge rely on — is written once, in
executable form: the :data:`ARGUMENTS` table at the bottom of this
module, which is also what renders a record for humans.  There ``ctx``
is a frame's 64-bit ``transaction_context`` (a 0xACE-tagged trace id
when the recorder stamped it) and a *header* is :func:`pack3` of three
addressing fields.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.i2o.errors import I2OError
from repro.i2o.function_codes import function_name

#: seq, t_ns, a, b, c (u64 each) + ``kind | d << 8`` (u64)
RECORD_STRUCT = struct.Struct("<QQQQQQ")
RECORD_SIZE = RECORD_STRUCT.size  # 48

_U64 = 0xFFFFFFFFFFFFFFFF

EV_DISPATCH = 1
EV_DISPATCH_ERROR = 3
EV_FRAME_ALLOC = 4
EV_FRAME_RELEASE = 5
EV_FRAME_TRANSMIT = 6
EV_FRAME_INGEST = 7
EV_POOL_EXHAUSTED = 8
EV_REL_SEND = 9
EV_REL_DELIVER = 10
EV_REL_ACK = 11
EV_REL_RETRANSMIT = 12
EV_JOURNAL_COMMIT = 13
EV_JOURNAL_RETIRE = 14
EV_TIMER_FIRE = 15
EV_LIVENESS = 16
EV_CRASH_POINT = 17
EV_WATCHDOG_TRIP = 18
EV_SANITIZER = 19
EV_HARD_STOP = 20
EV_DATAFLOW_SHED = 21
EV_DATAFLOW_PARK = 22
EV_DATAFLOW_RESUME = 23
EV_SLOW_FRAME = 24
EV_DATAFLOW_PARK_OVERFLOW = 25

KIND_NAMES: dict[int, str] = {
    EV_DISPATCH: "dispatch",
    EV_DISPATCH_ERROR: "dispatch-error",
    EV_FRAME_ALLOC: "frame-alloc",
    EV_FRAME_RELEASE: "frame-release",
    EV_FRAME_TRANSMIT: "frame-transmit",
    EV_FRAME_INGEST: "frame-ingest",
    EV_POOL_EXHAUSTED: "pool-exhausted",
    EV_REL_SEND: "rel-send",
    EV_REL_DELIVER: "rel-deliver",
    EV_REL_ACK: "rel-ack",
    EV_REL_RETRANSMIT: "rel-retransmit",
    EV_JOURNAL_COMMIT: "journal-commit",
    EV_JOURNAL_RETIRE: "journal-retire",
    EV_TIMER_FIRE: "timer-fire",
    EV_LIVENESS: "liveness",
    EV_CRASH_POINT: "crash-point",
    EV_WATCHDOG_TRIP: "watchdog-trip",
    EV_SANITIZER: "sanitizer",
    EV_HARD_STOP: "hard-stop",
    EV_DATAFLOW_SHED: "dataflow-shed",
    EV_DATAFLOW_PARK: "dataflow-park",
    EV_DATAFLOW_RESUME: "dataflow-resume",
    EV_SLOW_FRAME: "slow-frame",
    EV_DATAFLOW_PARK_OVERFLOW: "dataflow-park-overflow",
}

#: EV_DISPATCH: the top bit of ``c`` (above any queue wait) says the
#: loop released the dispatched frame at the end of its dispatch — a
#: frameFree that writes no ``frame-release`` record of its own
DISPATCH_RELEASED = 1 << 63
#: EV_DISPATCH: the queue wait in ``c``, without the release bit
DISPATCH_WAIT_MASK = DISPATCH_RELEASED - 1

#: EV_LIVENESS state codes (b argument)
LIVE_ALIVE = 0
LIVE_SUSPECT = 1
LIVE_DEAD = 2
LIVENESS_NAMES = {LIVE_ALIVE: "ALIVE", LIVE_SUSPECT: "SUSPECT", LIVE_DEAD: "DEAD"}

#: EV_SANITIZER violation codes (a argument)
SAN_DOUBLE_FREE = 1
SAN_USE_AFTER_FREE = 2
SANITIZER_NAMES = {SAN_DOUBLE_FREE: "double-free",
                   SAN_USE_AFTER_FREE: "use-after-free"}

#: EV_CRASH_POINT codes, keyed by the crash-point names defined in
#: repro.core.reliable (stable strings; a code of 0 decodes as the
#: unknown point).
CRASH_POINT_CODES: dict[str, int] = {
    "pre-journal-append": 1,
    "post-append-pre-transmit": 2,
    "post-transmit-pre-ack-record": 3,
    "post-ack-record-pre-pop": 4,
}
CRASH_POINT_NAMES = {code: name for name, code in CRASH_POINT_CODES.items()}


class FlightRecError(I2OError):
    """A flight-recorder dump is malformed, torn or truncated."""


def pack3(hi: int, mid: int, lo: int) -> int:
    """Pack three addressing fields into one 64-bit record argument:
    ``hi`` (32 bits, node-sized) | ``mid`` (16 bits) | ``lo`` (16 bits)."""
    return (
        ((hi & 0xFFFFFFFF) << 32) | ((mid & 0xFFFF) << 16) | (lo & 0xFFFF)
    )


def unpack3(value: int) -> tuple[int, int, int]:
    return (value >> 32) & 0xFFFFFFFF, (value >> 16) & 0xFFFF, value & 0xFFFF


@dataclass(frozen=True, slots=True)
class FlightRecord:
    """One decoded ring record."""

    seq: int
    t_ns: int
    a: int
    b: int
    c: int
    kind: int
    d: int = 0

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"unknown({self.kind})")

    def describe(self) -> str:
        """Human-readable event line (symbolic names, not raw ints)."""
        arguments = ARGUMENTS.get(self.kind)
        if arguments is None:
            return self.kind_name
        return f"{self.kind_name:<16} {arguments(self.a, self.b, self.c, self.d)}"

    def pack(self) -> bytes:
        return RECORD_STRUCT.pack(
            self.seq & _U64, self.t_ns & _U64, self.a & _U64,
            self.b & _U64, self.c & _U64,
            (self.kind & 0xFF) | ((self.d << 8) & _U64),
        )


def decode_records(body: bytes) -> tuple[FlightRecord, ...]:
    """Decode a run of packed records (a ring's or a dump's body)."""
    return tuple(
        FlightRecord(seq, t_ns, a, b, c, last & 0xFF, last >> 8)
        for seq, t_ns, a, b, c, last in RECORD_STRUCT.iter_unpack(body)
    )


def _hdr(b: int) -> str:
    target, function, xfunction = unpack3(b)
    return f"tid={target} fn={function_name(function)} xfn={xfunction:#06x}"


def _edge(a: int, b: int, c: int, d: int) -> str:
    node, tid, xfunction = unpack3(a)
    return f"edge=node{node}/tid{tid} xfn={xfunction:#06x} backlog={b}"


def _seq_only(a: int, b: int, c: int, d: int) -> str:
    return f"seq={a}"


#: kind -> what its (a, b, c, d) arguments are, as their renderer.
#: Kinds absent here (``hard-stop``) carry no arguments.
ARGUMENTS = {
    EV_DISPATCH: lambda a, b, c, d: (
        f"ctx={a:#x} {_hdr(b)} waited={c & DISPATCH_WAIT_MASK}ns took={d}ns"
        + (" released" if c & DISPATCH_RELEASED else "")
    ),
    EV_DISPATCH_ERROR: lambda a, b, c, d: f"ctx={a:#x} {_hdr(b)}",
    EV_SLOW_FRAME: lambda a, b, c, d: f"ctx={a:#x} {_hdr(b)} took={c}ns",
    EV_FRAME_ALLOC: lambda a, b, c, d: f"size={a} in_flight={b}",
    EV_FRAME_RELEASE: lambda a, b, c, d: f"ctx={a:#x}",
    EV_FRAME_TRANSMIT: lambda a, b, c, d: (
        "ctx={:#x} dest=node{}/tid{} xfn={:#06x} size={}".format(
            a, *unpack3(b), c)
    ),
    EV_FRAME_INGEST: lambda a, b, c, d: (
        "ctx={:#x} src=node{} tid={} xfn={:#06x} size={}".format(
            a, *unpack3(b), c)
    ),
    EV_POOL_EXHAUSTED: lambda a, b, c, d: f"requested={a}",
    EV_REL_SEND: lambda a, b, c, d: f"seq={a} dest=node{b} len={c}",
    EV_REL_DELIVER: lambda a, b, c, d: f"seq={a} src=node{b} len={c}",
    EV_REL_ACK: _seq_only,
    EV_JOURNAL_COMMIT: _seq_only,
    EV_JOURNAL_RETIRE: _seq_only,
    EV_REL_RETRANSMIT: lambda a, b, c, d: f"seq={a} retries_left={b}",
    EV_TIMER_FIRE: lambda a, b, c, d: f"timer={a} owner=tid{b} context={c:#x}",
    EV_LIVENESS: lambda a, b, c, d: (
        f"peer=node{a} -> {LIVENESS_NAMES.get(b, f'state{b}')}"
    ),
    EV_CRASH_POINT: lambda a, b, c, d: CRASH_POINT_NAMES.get(a, f"code{a}"),
    EV_WATCHDOG_TRIP: lambda a, b, c, d: f"quarantined=tid{a}",
    EV_SANITIZER: lambda a, b, c, d: SANITIZER_NAMES.get(a, f"code{a}"),
    EV_DATAFLOW_SHED: _edge,
    EV_DATAFLOW_PARK: _edge,
    EV_DATAFLOW_RESUME: _edge,
    EV_DATAFLOW_PARK_OVERFLOW: _edge,
}
