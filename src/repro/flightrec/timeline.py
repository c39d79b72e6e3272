"""Projections of the per-node record streams: hops, latency, the merge.

A *source* is anything with a ``node`` and decoded ``records`` — a
loaded dump (dead nodes included: they spilled at ``hard_stop``), a
live :class:`~repro.flightrec.recorder.FlightRecorder` or the
collector's mirror of one.  :func:`project_hops` turns one node's
``dispatch`` records into the per-hop facts the telemetry agent
exports and the critical-path analyzer decomposes;
:func:`dispatch_percentiles` reads the same records' durations for
the console's P50/P99, and :func:`frame_releases` counts releases in
both forms they are recorded in.  :class:`MergedTimeline` joins
sources on the two identifiers that already cross the wire:

* **trace ids** — the 0xACE-tagged ``transaction_context``: a
  ``frame-transmit`` on node A and a ``dispatch`` on node B
  carrying the same id are one message leaving and arriving;
* **reliable sequence numbers** — a ``rel-send`` and a ``rel-deliver``
  with the same seq and node pair are one reliable message's two ends.

The joins drive two diagnoses: :meth:`MergedTimeline.gaps` (sends with
no matching arrival anywhere in the merge — lost past every
retransmission, or addressed to a node whose dump is missing) and
:func:`in_flight_sends` (per source, reliable sends never acked within
it: the frames in flight when that node died).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from operator import attrgetter
from typing import Any

from repro.core.tracing import is_trace_context
from repro.flightrec.records import (
    DISPATCH_RELEASED,
    DISPATCH_WAIT_MASK,
    EV_DISPATCH,
    EV_DISPATCH_ERROR,
    EV_FRAME_INGEST,
    EV_FRAME_RELEASE,
    EV_FRAME_TRANSMIT,
    EV_JOURNAL_COMMIT,
    EV_REL_ACK,
    EV_REL_DELIVER,
    EV_REL_RETRANSMIT,
    EV_REL_SEND,
    FlightRecord,
    unpack3,
)
from repro.i2o.function_codes import EXEC_TIMER_EXPIRED, PRIVATE

#: record kinds whose ``a`` argument is a frame ``transaction_context``
_CTX_KINDS = frozenset((
    EV_DISPATCH, EV_DISPATCH_ERROR, EV_FRAME_TRANSMIT, EV_FRAME_INGEST,
))

#: the reliable stream's record kinds (``a`` is the stream seq)
_REL_KINDS = frozenset((
    EV_REL_SEND, EV_REL_DELIVER, EV_REL_ACK, EV_REL_RETRANSMIT,
    EV_JOURNAL_COMMIT,
))


#: a FlightDump or a live FlightRecorder: ``.node`` + ``.records``
RecordSource = Any


@dataclass(frozen=True, slots=True)
class Hop:
    """One traced dispatch: a ``dispatch`` record of one node."""

    trace_id: int
    #: the record's ring sequence number — unique per node
    seq: int
    node: int
    tid: int
    function: int
    xfunction: int
    start_ns: int
    queue_wait_ns: int
    dispatch_ns: int


#: The order of one trace's hops, wherever they are listed.  Cross-node
#: ordering is meaningful on both planes: natively all nodes read the
#: same ``perf_counter_ns`` domain, and in simulation all executives
#: share the simulated clock.
hop_order = attrgetter("start_ns", "node", "seq")


def project_hops(node: int, records: Iterable[FlightRecord]) -> list[Hop]:
    """The hops in one node's record stream, in dispatch order.

    A hop is a ``dispatch`` record carrying a trace id; it is written
    when the dispatch is over, so a node that dies mid-dispatch leaves
    no hop for it.
    """
    return [
        Hop(record.a, record.seq, node, *unpack3(record.b),
            record.t_ns, record.c & DISPATCH_WAIT_MASK, record.d)
        for record in records
        if record.kind == EV_DISPATCH and is_trace_context(record.a)
    ]


def frame_releases(records: Iterable[FlightRecord]) -> int:
    """How many frame releases one node's record stream holds: its
    ``frame-release`` records plus the ``dispatch`` records that carry
    the loop's release of the frame they dispatched."""
    return sum(
        1 for r in records
        if r.kind == EV_FRAME_RELEASE
        or (r.kind == EV_DISPATCH and r.c & DISPATCH_RELEASED)
    )


#: the functions whose dispatches :func:`dispatch_percentiles` reads
_DEVICE_WORK = frozenset({PRIVATE, EXEC_TIMER_EXPIRED})


def dispatch_percentiles(
    records: Iterable[FlightRecord], percents: Iterable[int]
) -> list[int]:
    """The nearest-rank percentiles (1..100) of the durations of the
    device-work ``dispatch`` records in one node's record stream:
    ``PRIVATE`` requests and ``EXEC_TIMER_EXPIRED`` expiries, whose
    ``on_timer`` is a device's own work.  Exact durations, taken over
    the records the stream holds (a ring's newest ``capacity``), not
    over every dispatch since attach.  Other management dispatches
    (executive and utility frames: the telemetry sweep's own requests
    and replies among them) are left out, so the console does not read
    its own observer.  Empty when the stream holds no such dispatch."""
    durations = sorted(
        r.d for r in records
        if r.kind == EV_DISPATCH and (r.b >> 16) & 0xFFFF in _DEVICE_WORK
    )
    n = len(durations)
    return [durations[-(-p * n // 100) - 1] for p in percents] if n else []


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """One record placed in the merged, cluster-wide order."""

    node: int
    record: FlightRecord

    def describe(self) -> str:
        return f"node {self.node:>3}  {self.record.describe()}"


@dataclass(frozen=True, slots=True)
class Gap:
    """A send that never matched an arrival anywhere in the merge."""

    kind: str  # "send-no-deliver" | "transmit-no-dispatch"
    node: int  # the sending node
    record: FlightRecord

    def describe(self) -> str:
        record = self.record
        if self.kind == "send-no-deliver":
            return (
                f"send->no-deliver: node {self.node} rel seq {record.a} "
                f"(dest node {record.b}) never seen by the receiver"
            )
        return (
            f"transmit->no-dispatch: node {self.node} ctx {record.a:#x} "
            f"(dest node {unpack3(record.b)[0]}) never dispatched remotely"
        )


class MergedTimeline:
    """The cross-node causal timeline built from a set of sources."""

    def __init__(self, dumps: Iterable[RecordSource]) -> None:
        self.dumps = list(dumps)
        records = [(dump.node, dump.records) for dump in self.dumps]
        self.events: list[TimelineEvent] = sorted(
            (
                TimelineEvent(node, record)
                for node, node_records in records
                for record in node_records
            ),
            key=lambda ev: (ev.record.t_ns, ev.node, ev.record.seq),
        )
        # trace id -> its hops, every node's projection merged.
        self._hops: dict[int, list[Hop]] = {}
        for node, node_records in records:
            for hop in project_hops(node, node_records):
                self._hops.setdefault(hop.trace_id, []).append(hop)
        # (sender node, dest node, seq) seen leaving / arriving.
        self._sent: dict[tuple[int, int, int], TimelineEvent] = {}
        self._delivered: set[tuple[int, int, int]] = set()
        # frame context -> every record carrying it, in merged order.
        self._by_ctx: dict[int, list[TimelineEvent]] = {}
        # node -> its reliable-stream records, in merged order.
        self._reliable: dict[int, list[FlightRecord]] = {}
        for event in self.events:
            record = event.record
            if record.kind in _CTX_KINDS:
                self._by_ctx.setdefault(record.a, []).append(event)
            elif record.kind in _REL_KINDS:
                self._reliable.setdefault(event.node, []).append(record)
                if record.kind == EV_REL_SEND:
                    self._sent.setdefault(
                        (event.node, record.b, record.a), event
                    )
                elif record.kind == EV_REL_DELIVER:
                    self._delivered.add((record.b, event.node, record.a))

    @property
    def nodes(self) -> list[int]:
        return sorted({dump.node for dump in self.dumps})

    # -- joins ---------------------------------------------------------------
    def stream(self, sender: int, seq: int) -> list[TimelineEvent]:
        """Every reliable-stream record for ``seq`` sent by ``sender``:
        sends and retransmissions on the sender (any incarnation of its
        node id), the deliver on the receiver, the ack back home —
        chronological, cross-node."""
        out = []
        for event in self.events:
            record = event.record
            if record.kind in (EV_REL_SEND, EV_REL_RETRANSMIT, EV_REL_ACK):
                if event.node == sender and record.a == seq:
                    out.append(event)
            elif record.kind == EV_REL_DELIVER:
                if record.b == sender and record.a == seq:
                    out.append(event)
        return out

    def trace(self, trace_id: int) -> list[TimelineEvent]:
        """Every record carrying ``trace_id`` as its frame context."""
        return self._by_ctx.get(trace_id, [])

    def trace_ids(self) -> list[int]:
        """Every trace with at least one complete hop in the merge."""
        return sorted(self._hops)

    def hops(self, trace_id: int) -> list[Hop]:
        """One trace's hops, in :data:`hop_order`."""
        return sorted(self._hops.get(trace_id, ()), key=hop_order)

    def reliable(self, node: int) -> list[FlightRecord]:
        """``node``'s reliable-stream records, chronological."""
        return self._reliable.get(node, [])

    def delivered(self, sender: int, dest: int, seq: int) -> bool:
        return (sender, dest, seq) in self._delivered

    # -- diagnoses -----------------------------------------------------------
    def gaps(self) -> list[Gap]:
        """Sends with no matching arrival anywhere in the merge.

        A reliable send is matched by a ``rel-deliver`` with the same
        (sender, dest, seq); a traced transmit is matched by a
        ``dispatch`` with the same trace id on *another* node
        (the same message may hop several times; any remote dispatch
        counts as arrival).
        """
        out: list[Gap] = []
        for (sender, dest, _seq), event in sorted(self._sent.items()):
            if (sender, dest, event.record.a) not in self._delivered:
                out.append(Gap("send-no-deliver", event.node, event.record))
        for ctx, events in sorted(self._by_ctx.items()):
            if not is_trace_context(ctx):
                continue
            transmit = next(
                (e for e in events if e.record.kind == EV_FRAME_TRANSMIT),
                None,
            )
            if transmit is not None and not any(
                e.record.kind == EV_DISPATCH and e.node != transmit.node
                for e in events
            ):
                out.append(
                    Gap("transmit-no-dispatch", transmit.node, transmit.record)
                )
        return out

    def describe(self) -> str:
        lines = [
            f"=== merged timeline: {len(self.dumps)} dump(s), "
            f"nodes {self.nodes}, {len(self.events)} event(s) ===",
            f"{'t_ns':>16}  {'':>9}  event",
        ]
        for event in self.events:
            lines.append(
                f"{event.record.t_ns:>16}  {event.describe()}"
            )
        gaps = self.gaps()
        lines.append(f"=== {len(gaps)} gap(s) ===")
        lines.extend(gap.describe() for gap in gaps)
        return "\n".join(lines)


def in_flight_sends(dump: RecordSource) -> list[FlightRecord]:
    """Reliable sends never acked *within this dump* — the frames in
    flight at the moment the ring was spilled.  For a dump written by
    a crash (``hard_stop``), this identifies the in-flight frames at
    the crash window from the black box alone, no journal needed."""
    acked = {r.a for r in dump.records if r.kind == EV_REL_ACK}
    latest: dict[int, FlightRecord] = {}
    for record in dump.records:
        if record.kind in (EV_REL_SEND, EV_REL_RETRANSMIT) \
                and record.a not in acked:
            latest[record.a] = record
    return [latest[seq] for seq in sorted(latest)]
