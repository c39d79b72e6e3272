"""Reliable delivery on top of unreliable peer transports.

The framework core deliberately provides *unreliable* datagram
semantics (like GM and like the I2O messaging layer); applications
needing guarantees layer them on top.  :class:`ReliableEndpoint` is
that layer, built entirely from the architectural pieces the paper
provides:

* sequencing and acknowledgements are ordinary private messages;
* acknowledgements are batched: the first unacked arrival arms one
  zero-delay flush timer, and its expiry sends one ack per source
  naming every seq received since (at most :data:`MAX_ACK_SEQS` a
  frame), so a burst costs one ack frame, not one per message;
* retransmission deadlines use the **I2O timer facility** (expirations
  arrive as frames through the same queues, paper §3.2): the pending
  table stays in deadline order and one timer per endpoint, armed for
  its head, retransmits every entry that is due when it fires;
* every data and ack frame carries a CRC32, so a corrupted frame is
  discarded instead of delivering garbage or — worse — acknowledging
  a sequence number that was never received;
* duplicate suppression keeps at-most-once delivery to the consumer,
  so the combination is exactly-once as long as the wire eventually
  delivers (tested against the fault-injecting transport);
* with ``ordered=True`` the endpoint additionally delivers *in
  sequence* per sending peer: out-of-order arrivals are parked in a
  hold-back buffer until the gap closes (the gap's retransmission is
  already scheduled on the sender).

When the supervision layer declares a peer DEAD, the endpoint's
``on_peer_dead`` hook aborts every in-flight retransmission toward
that node — retrying into a black hole only wastes the wire — and
reports each aborted message through ``on_failed``.

Every send takes one path: ``send_reliable``, on any thread, *accepts*
it (seq, payload snapshot, wire CRC) and arms the zero-delay flush
timer, whose :meth:`~ReliableEndpoint.commit` — on the executive's
thread, which owns the pending table, the timers and the frames —
schedules and posts the accepted batch.  An endpoint given a
:class:`~repro.durable.segments.SegmentStore` journal also survives its
*own* death: ``commit()`` first writes every accepted SEND with one
journal call and one write.  *Write-ahead*: no frame for seq *s* leaves
before SEND(*s*) is on the file (``flush_every=1``).  *Durable at
commit*: a crash before loses only sends no peer has seen, whose seqs
are then reused safely.  One ACK record retires an acknowledgement
frame's seqs, or a failed batch's, so a restarted endpoint replays the
unacknowledged tail and resumes its sequence space; the receiver's
dedup window absorbs any overlap, keeping delivery exactly once across
the restart — provided the endpoint is reinstalled at its recorded
TiD, which the journal enforces.

xfunctions 0xF0xx are reserved framework space (below the RMI method
hash range).
"""

from __future__ import annotations

import struct
import time
import zlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from repro.core.device import Listener
# The journal codec's payload CRC *is* the wire CRC (one integrity
# discipline end to end: RAM, wire and disk).
from repro.durable.journal import JournalError
from repro.durable.journal import seeded_crc as _data_crc
from repro.flightrec.records import (
    CRASH_POINT_CODES,
    EV_CRASH_POINT,
    EV_JOURNAL_COMMIT,
    EV_JOURNAL_RETIRE,
    EV_REL_ACK,
    EV_REL_DELIVER,
    EV_REL_RETRANSMIT,
    EV_REL_SEND,
)
from repro.i2o.errors import I2OError
from repro.i2o.frame import MAX_PAYLOAD_SIZE, Frame
from repro.i2o.tid import Tid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.durable.segments import SegmentStore
    from repro.flightrec.recorder import FlightRecorder

XF_REL_DATA = 0xF001
XF_REL_ACK = 0xF002

#: data: seq (u64) + CRC32 of the bytes that follow (u32)
_HEADER = struct.Struct("<QI")
#: ack: seq count (u32) + CRC32 of the seq list (u32), then the seqs
#: (u64 each)
_ACK_HEAD = struct.Struct("<II")
#: seqs one ack frame names: 32 B header + 8 + 8 x 123 = one 1 KiB block
MAX_ACK_SEQS = 123
#: the largest payload one data frame carries
MAX_RELIABLE_PAYLOAD = MAX_PAYLOAD_SIZE - _HEADER.size
#: timer context of the zero-delay flush: owed acks, then accepted sends
_FLUSH = 1

#: (source, seq) pairs an unordered receiver remembers to suppress
#: duplicates
DEDUP_WINDOW = 4096

#: Named crash points for fault-injection tests (see
#: repro.analysis.crashpoints): the torn states the journal's
#: accept, commit and retire steps can leave behind.
CRASH_PRE_APPEND = "pre-journal-append"
CRASH_ACCEPTED = "accepted-pre-commit"
CRASH_POST_APPEND = "post-append-pre-transmit"
CRASH_PRE_ACK_RECORD = "post-transmit-pre-ack-record"
CRASH_POST_ACK_RECORD = "post-ack-record-pre-pop"

Consumer = Callable[[Tid, bytes], None]
FailureHandler = Callable[[int, Tid, bytes], None]
#: test hook: called with a crash-point name at instrumented spots
CrashHook = Callable[[str], None]


class ReliableEndpoint(Listener):
    """Sequenced, acknowledged, checksummed, deduplicated endpoint.

    Sequence numbers are global to the endpoint (not per target): an
    ack only carries the seq, and the proxy TiD an ack arrives from
    need not equal the proxy the data was sent to (transports rewrite
    initiators at ingest), so the seq alone must identify the pending
    entry.  Consequently ``ordered=True`` assumes the peer-pair usage
    pattern — one remote endpoint per sender — because a receiver
    reconstructs each sender's sequence independently and a sender
    interleaving targets would create permanent gaps.  For the same
    reason an ack names its seqs one by one: with several targets,
    "acked through N" is undefined at any one receiver.
    """

    device_class = "reliable_endpoint"
    metric_kind = "rel"

    def __init__(
        self,
        name: str = "reliable",
        *,
        retransmit_ns: int = 1_000_000,
        max_retries: int = 25,
        ordered: bool = False,
        journal: "SegmentStore | None" = None,
    ) -> None:
        super().__init__(name)
        if max_retries < 0:
            raise I2OError(f"max_retries must be >= 0, got {max_retries}")
        self.retransmit_ns = retransmit_ns
        self.max_retries = max_retries
        self.ordered = ordered
        self.consumer: Consumer | None = None
        self.on_failed: FailureHandler | None = None
        self.journal = journal
        #: fault-injection hook (repro.analysis.crashpoints.crash_at)
        self.crash_hook: CrashHook | None = None
        self._next_seq = 1
        #: seq -> (target, payload, retries_left, deadline_ns, wire crc),
        #: in deadline order (a retransmission re-inserts at the end)
        self._pending: dict[int, tuple[Tid, bytes, int, int, int]] = {}
        #: the one retransmit timer, armed while ``_pending`` is not empty
        self._rtx_timer: int | None = None
        #: sends accepted and not yet committed, each
        #: (seq, node, remote tid, payload, crc, target): any thread
        #: appends, only commit() removes
        self._accepted: list[tuple[int, int, int, bytes, int, Tid]] = []
        #: leading ``_accepted`` entries already handed to the journal (by
        #: an unplug, or a failed commit: then in the store's kept
        #: buffer), and the flush timer that retries a failed commit
        self._staged = 0
        self._retry_timer: int | None = None
        #: initiator -> seqs received since the last ack flush
        self._unacked: dict[Tid, list[int]] = {}
        #: a zero-delay flush timer is armed for ``_unacked``
        self._ack_timer: int | None = None
        #: (initiator, seq) -> None, LRU-bounded (unordered mode)
        self._seen: OrderedDict[tuple[Tid, int], None] = OrderedDict()
        #: ordered mode: initiator -> next seq to deliver
        self._expected: dict[Tid, int] = {}
        #: ordered mode: initiator -> {future seq: payload}
        self._holdback: dict[Tid, dict[int, bytes]] = {}
        self.delivered = 0
        self.duplicates_suppressed = 0
        self.retransmissions = 0
        self.failures = 0
        self.aborted = 0
        self.corrupt_discarded = 0
        self.commit_failures = 0
        self.replayed = 0
        self.recoveries = 0
        self.recovery_ns = 0

    def on_plugin(self) -> None:
        self.bind(XF_REL_DATA, self._on_data)
        self.bind(XF_REL_ACK, self._on_ack)
        if self.journal is not None:
            self._recover()

    def on_unplug(self) -> None:
        # The timers ride through a re-plug (Executive.uninstall carries
        # them), so only the journal needs care: journal what was
        # accepted (the carried flush timer posts it) and push buffered
        # records to disk, so a later restart replays a complete
        # write-ahead record.  The store stays open — the endpoint may
        # be re-plugged.
        if self.journal is not None:
            self._journal_accepted()
            self.journal.flush()

    # -- durability --------------------------------------------------------
    def attach_journal(self, journal: "SegmentStore") -> None:
        """Bind a journal; recovers immediately if already installed."""
        if self.journal is not None:
            raise I2OError(
                f"endpoint {self.name!r} already has a journal attached"
            )
        self.journal = journal
        if self.executive is not None:
            self._recover()

    @property
    def journal_depth(self) -> int:
        """Unacknowledged records on disk (0 without a journal)."""
        return self.journal.depth if self.journal is not None else 0

    def _recover(self) -> None:
        """Replay the journal's unacknowledged tail and resume the
        sequence space past everything the journal has ever seen."""
        exe = self._require_live()
        journal = self.journal
        assert journal is not None
        start_ns = time.perf_counter_ns()
        # Enforce identity before anything else: replaying under a new
        # TiD would bypass the receiver's dedup keying entirely.
        journal.ensure_identity(exe.node, int(self.tid))
        state = journal.recovered
        if state.next_seq > self._next_seq:
            self._next_seq = state.next_seq
        pending = journal.pending()
        deadline = exe.clock.now_ns() + self.retransmit_ns
        # Sends still accepted (a re-plug) are the flush timer's to post.
        accepted = {entry[0] for entry in self._accepted}
        for seq in sorted(pending.keys() - accepted):
            record = pending[seq]
            if record.node == exe.node:
                target = Tid(record.tid)
            else:
                target = exe.routes.create_proxy(record.node, Tid(record.tid))
            crc = _data_crc(seq, record.payload)
            self._pending[seq] = (
                target, record.payload, self.max_retries, deadline, crc,
            )
            # Replay bypasses send_reliable, so the send is recorded
            # here: a restarted node's black box shows the same seqs
            # leaving again.
            fr = self._flightrec
            if fr is not None:
                fr.record(EV_REL_SEND, seq, record.node, len(record.payload))
            self._transmit(seq, target, record.payload, crc)
            self.replayed += 1
        self._arm_retransmit()
        if state.records:
            self.recoveries += 1
        self.recovery_ns = time.perf_counter_ns() - start_ns

    @property
    def _flightrec(self) -> "FlightRecorder | None":
        exe = self.executive
        return exe.flightrec if exe is not None else None

    def _crash(self, point: str) -> None:
        # Callers test ``crash_hook`` first, so a run without one pays
        # no call here.
        if self.crash_hook is not None:
            # Record *before* invoking the hook: when it raises
            # ExecutiveCrashed the subsequent hard_stop spills the
            # ring, and the black box must already name the torn state.
            fr = self._flightrec
            if fr is not None:
                fr.record(EV_CRASH_POINT, CRASH_POINT_CODES.get(point, 0))
            self.crash_hook(point)

    # -- sending ----------------------------------------------------------
    def send_reliable(
        self, target: Tid, payload: bytes | bytearray | memoryview
    ) -> int:
        """Accept ``payload`` for guaranteed delivery; returns its seq.

        The payload bytes are snapshotted here, so the caller may pass a
        view into a pool frame it is about to free: retransmissions, the
        journal record and any eventual ``on_failed`` report all use the
        private copy, never the caller's (possibly recycled) buffer.  Any
        thread may send: :meth:`commit` journals and posts the send on
        the executive's next step.
        """
        exe = self._require_live()
        data = bytes(payload)
        if len(data) > MAX_RELIABLE_PAYLOAD:  # commit() could not post it
            raise I2OError(f"payload of {len(data)} B > {MAX_RELIABLE_PAYLOAD}")
        seq = self._next_seq
        crc = _data_crc(seq, data)  # journal, wire and every retransmit
        # The stable address: proxy TiDs are process-local and do not
        # survive a restart, the route they stand for does.  A local
        # target is recorded under this executive's own node.
        node, remote_tid = exe.node, target
        if self.journal is not None or exe.flightrec is not None:
            route = exe.routes.route_for(target)
            if route is not None:
                node, remote_tid = route.node, route.remote_tid
        if self.crash_hook is not None:
            self._crash(CRASH_PRE_APPEND)
        self._next_seq = seq + 1
        accepted = self._accepted
        accepted.append((seq, node, int(remote_tid), data, crc, target))
        if len(accepted) == 1:
            self.start_timer(0, _FLUSH)
        return seq

    def commit(self) -> int:
        """Journal every accepted send (one store call, with a journal),
        then schedule and post their frames; returns how many.  A failed
        write posts nothing: the batch stays accepted, the error is
        counted and raised, and a flush timer ``retransmit_ns`` later
        retries it.  Call it from the thread that steps the endpoint's
        executive: the owner of the journal, the table and the timers."""
        accepted, journal = self._accepted, self.journal
        count = len(accepted) if journal is None else self._journal_accepted()
        if not count:
            return 0
        batch = accepted[:count]
        del accepted[:count]
        self._staged = 0
        if accepted:  # a concurrent accept saw our batch and armed nothing
            self.start_timer(0, _FLUSH)
        fr = self._flightrec
        if fr is not None and journal is not None:
            for entry in batch:
                fr.record(EV_JOURNAL_COMMIT, entry[0])
        if self.crash_hook is not None:
            self._crash(CRASH_POST_APPEND)
        deadline = self._require_live().clock.now_ns() + self.retransmit_ns
        for seq, _node, _tid, data, crc, target in batch:
            self._pending[seq] = (target, data, self.max_retries, deadline, crc)
        if self._rtx_timer is None:
            self._arm_retransmit()
        for seq, node, _tid, data, crc, target in batch:
            if fr is not None:
                fr.record(EV_REL_SEND, seq, node, len(data))
            self._transmit(seq, target, data, crc)
        return count

    def _journal_accepted(self) -> int:
        """Journal the accepted sends (one store call); they stay accepted."""
        accepted, journal = self._accepted, self.journal
        count = len(accepted)
        if count:
            assert journal is not None
            if self.crash_hook is not None:
                self._crash(CRASH_ACCEPTED)
            try:
                journal.append_sends(accepted[self._staged:count])
            except (OSError, JournalError):
                self.commit_failures += 1
                if self._retry_timer is None:
                    self._retry_timer = self.start_timer(self.retransmit_ns, _FLUSH)
                raise
            finally:
                self._staged = count  # written, or in the store's kept buffer
        return count

    def _transmit(self, seq: int, target: Tid, payload: bytes, crc: int) -> None:
        # Header and payload are written straight into the loaned
        # frame — no intermediate header+payload concatenation.
        def write(view: memoryview) -> None:
            _HEADER.pack_into(view, 0, seq, crc)
            view[_HEADER.size:] = payload

        self.send_into(
            target, _HEADER.size + len(payload), write, xfunction=XF_REL_DATA
        )

    @property
    def in_flight(self) -> int:
        """Messages accepted and not yet acknowledged or failed."""
        return len(self._pending) + len(self._accepted)

    @property
    def held_back(self) -> int:
        return sum(len(h) for h in self._holdback.values())

    # -- receive path -----------------------------------------------------
    def _on_data(self, frame: Frame) -> None:
        if frame.is_reply:
            return  # e.g. a parked route's failure reply to our send
        if frame.payload_size < _HEADER.size:
            return  # corrupt beyond recognition; let retransmit handle it
        seq, crc = _HEADER.unpack_from(frame.payload, 0)
        payload = bytes(frame.payload[_HEADER.size:])
        if _data_crc(seq, payload) != crc:
            # A flipped bit anywhere (seq, crc or body) lands here;
            # dropping it leaves recovery to the sender's timer.  The
            # CRC is seeded with the seq so a damaged sequence number
            # cannot deliver (and ack) intact bytes at the wrong
            # position in the stream.
            self.corrupt_discarded += 1
            return
        # Always ack - the previous ack may have been lost.  The ack
        # waits for the flush, so one frame answers the whole burst.
        source = frame._initiator
        self._unacked.setdefault(source, []).append(seq)
        if self._ack_timer is None:
            self._ack_timer = self.start_timer(0, _FLUSH)
        exe = self._require_live()
        fr = exe.flightrec
        if fr is not None:
            route = exe.routes.route_for(source)
            src = route.node if route is not None else exe.node
            fr.record(EV_REL_DELIVER, seq, src, len(payload))
        if self.ordered:
            self._deliver_ordered(source, seq, payload)
        else:
            self._deliver_unordered(source, seq, payload)

    def _deliver_unordered(self, source: Tid, seq: int, payload: bytes) -> None:
        key = (source, seq)
        if key in self._seen:
            self.duplicates_suppressed += 1
            return
        self._seen[key] = None
        while len(self._seen) > DEDUP_WINDOW:
            self._seen.popitem(last=False)
        self._consume(source, payload)

    def _deliver_ordered(self, source: Tid, seq: int, payload: bytes) -> None:
        expected = self._expected.get(source, 1)
        held = self._holdback.setdefault(source, {})
        if seq < expected or seq in held:
            self.duplicates_suppressed += 1
            return
        held[seq] = payload
        while expected in held:
            self._consume(source, held.pop(expected))
            expected += 1
        self._expected[source] = expected

    def _consume(self, source: Tid, payload: bytes) -> None:
        self.delivered += 1
        if self.consumer is not None:
            self.consumer(source, payload)

    def _flush_acks(self) -> None:
        """Send each source one ack naming every seq it was not yet
        acked for (split at :data:`MAX_ACK_SEQS`)."""
        self._ack_timer = None
        unacked, self._unacked = self._unacked, {}
        for source, seqs in unacked.items():
            for i in range(0, len(seqs), MAX_ACK_SEQS):
                chunk = seqs[i:i + MAX_ACK_SEQS]
                body = struct.pack(f"<{len(chunk)}Q", *chunk)
                self.send(
                    source,
                    _ACK_HEAD.pack(len(chunk), zlib.crc32(body)) + body,
                    xfunction=XF_REL_ACK,
                )

    def _on_ack(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        payload = frame.payload
        size = len(payload)
        count, crc = (
            _ACK_HEAD.unpack_from(payload, 0) if size >= _ACK_HEAD.size
            else (0, 0)
        )
        if (
            not 0 < count <= MAX_ACK_SEQS
            or size != _ACK_HEAD.size + 8 * count
            or zlib.crc32(payload[_ACK_HEAD.size:]) != crc
        ):
            # A corrupted ack could otherwise retire an arbitrary
            # pending seq and lose that message forever.
            self.corrupt_discarded += 1
            return
        pending = self._pending
        # The frame's seqs still pending, once each: a duplicate ack, or
        # a seq named twice, retires nothing more.
        acked: dict[int, None] = {}
        for seq in struct.unpack_from(f"<{count}Q", payload, _ACK_HEAD.size):
            if seq in pending:
                acked[seq] = None
        if acked:
            fr = self._flightrec
            if fr is not None:
                for seq in acked:
                    fr.record(EV_REL_ACK, seq)
            if self.crash_hook is not None:
                self._crash(CRASH_PRE_ACK_RECORD)
            journal = self.journal
            if journal is not None:
                # Crash window: the peer has the messages but this one
                # ACK record may die unflushed.  Replay then re-transmits
                # every seq of the frame and the receiver's dedup absorbs
                # the duplicates — at-least-once on the wire,
                # exactly-once delivered.
                journal.append_ack(*acked)
                if fr is not None:
                    for seq in acked:
                        fr.record(EV_JOURNAL_RETIRE, seq)
            # Journal first, pending table second: whoever sees
            # in_flight drop (an observer, a crash) finds the retire
            # already recorded.
            if self.crash_hook is not None:
                self._crash(CRASH_POST_ACK_RECORD)
            for seq in acked:
                del pending[seq]
        self._disarm_if_idle()

    # -- timers -------------------------------------------------------------
    def on_timer(self, context: int, frame: Frame) -> None:
        # A flush timer is told by its context (a sending thread may
        # arm one), the retransmit timer by its id (core.timer): an
        # expiry a cancel left behind matches no handle.
        if context == _FLUSH:
            if frame.initiator_context == self._retry_timer:
                self._retry_timer = None
            self._flush_acks()
            if self._accepted:
                self.commit()
        elif frame.initiator_context == self._rtx_timer:
            self._rtx_timer = None
            if self._accepted:
                self._commit_and_go_on()
            self._retransmit_due()

    def _commit_and_go_on(self) -> None:
        """:meth:`commit`, leaving a failure to the retry it armed."""
        try:
            self.commit()
        except (OSError, JournalError):
            pass

    def _arm_retransmit(self) -> None:
        """Arm the retransmit timer for the head of ``_pending``."""
        if self._rtx_timer is None and self._pending:
            deadline = next(iter(self._pending.values()))[3]
            now = self._require_live().clock.now_ns()
            self._rtx_timer = self.start_timer(max(0, deadline - now))

    def _disarm_if_idle(self) -> None:
        if not self._pending and self._rtx_timer is not None:
            self.cancel_timer(self._rtx_timer)
            self._rtx_timer = None

    def _retransmit_due(self) -> None:
        """Retransmit every entry whose deadline has passed, retire those
        out of retries, then re-arm for the next one."""
        now = self._require_live().clock.now_ns()
        pending = self._pending
        due = []
        for seq, entry in pending.items():
            if entry[3] > now:
                break
            due.append(seq)
        exhausted, fr = [], self._flightrec
        for seq in due:
            target, payload, retries_left, _deadline, crc = pending[seq]
            if retries_left <= 0:
                exhausted.append(seq)
                continue
            self.retransmissions += 1
            del pending[seq]
            pending[seq] = (target, payload, retries_left - 1,
                            now + self.retransmit_ns, crc)
            if fr is not None:
                fr.record(EV_REL_RETRANSMIT, seq, retries_left - 1)
            self._transmit(seq, target, payload, crc)
        self._retire_failed(exhausted)
        self._arm_retransmit()

    def _retire_failed(self, seqs: list[int], aborted: bool = False) -> None:
        """Retire pending sends that failed for good: one ACK record for
        them all (a restart must not resurrect a message the application
        was told is dead), then the pending table, then the counts and
        one ``on_failed`` report per seq, in seq order."""
        if not seqs:
            return
        seqs.sort()
        if self.journal is not None:
            self.journal.append_ack(*seqs)
        failed = [(seq, self._pending.pop(seq)) for seq in seqs]
        self.failures += len(seqs)
        self.aborted += len(seqs) if aborted else 0
        if self.on_failed is not None:
            for seq, (target, payload, *_) in failed:
                self.on_failed(seq, target, payload)

    # -- failover ------------------------------------------------------------
    def on_peer_dead(self, node: int) -> int:
        """Abort every in-flight message routed to ``node``.

        The supervision cascade calls this hook when a peer is declared
        DEAD: each message leaves the retransmit schedule and is reported
        through ``on_failed`` like an exhausted retry, with a ``bytes``
        snapshot the callback may keep.  Returns the abort count.
        """
        exe = self._require_live()
        if self._accepted:  # accepted sends are in flight too
            self._commit_and_go_on()
        doomed = []
        for seq, (target, *_) in self._pending.items():
            route = exe.routes.route_for(target)
            if route is not None and route.node == node:
                doomed.append(seq)
        self._retire_failed(doomed, aborted=True)
        self._disarm_if_idle()
        return len(doomed)

    def export_counters(self) -> dict[str, object]:
        return {
            "delivered": self.delivered,
            "duplicates_suppressed": self.duplicates_suppressed,
            "retransmissions": self.retransmissions,
            "failures": self.failures,
            "aborted": self.aborted,
            "corrupt_discarded": self.corrupt_discarded,
            "commit_failures": self.commit_failures,
            "in_flight": self.in_flight,
            "held_back": self.held_back,
            "replayed": self.replayed,
            "recoveries": self.recoveries,
            "journal_depth": self.journal_depth,
            "recovery_latency_ns": self.recovery_ns,
        }
