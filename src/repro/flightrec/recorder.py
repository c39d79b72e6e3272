"""The black-box flight recorder: a bounded, preallocated binary ring.

Every executive can carry one :class:`FlightRecorder`; the fabric
(dispatch loop, pool, transports, reliable endpoint, timers, liveness,
watchdog, sanitizer) writes fixed 48-byte records into its ring.  The
ring is a single ``bytearray`` allocated once at construction and
written in place with ``struct.pack_into`` — recording an event costs
one pack and an index increment, never an allocation, so the recorder
can stay on in production (the aircraft-flight-recorder model the
XDAQ deployments at CMS paired with their recovery machinery).

When the node dies — ``hard_stop()``, a watchdog trip, a sanitizer
violation, an uncaught dispatch exception — the ring is *spilled* to
disk with the same tmp + flush + ``fsync`` + ``os.replace`` discipline
as :class:`~repro.durable.segments.SnapshotStore`, so a dump on disk
is never torn: either the previous complete dump or the new complete
dump, nothing in between.

Dump layout (little-endian)::

    offset  size  field
    ------  ----  ---------------------------------------------------
       0      4   magic       b"FREC"
       4      2   version     (2)
       6      2   node        recording executive's node id
       8      2   record size (48; readers refuse other sizes)
      10      2   reserved    (0)
      12      4   ring capacity (records)
      16      8   total records ever written (dropped = total - stored)
      24      4   CRC32 over the record bytes that follow
      28     24   spill reason (NUL-padded ASCII)
      52      ..  records, oldest first (ring unwrapped)
"""

from __future__ import annotations

import logging
import os
import struct
import time
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.observer import OUTCOME_HANDLER_ERROR, DispatchObserver, DispatchRecord
from repro.core.tracing import is_trace_context, make_trace_id
from repro.flightrec.records import (
    DISPATCH_RELEASED,
    DISPATCH_WAIT_MASK,
    EV_DISPATCH,
    EV_DISPATCH_ERROR,
    EV_FRAME_ALLOC,
    EV_FRAME_RELEASE,
    EV_LIVENESS,
    EV_SANITIZER,
    EV_SLOW_FRAME,
    LIVE_ALIVE,
    LIVE_DEAD,
    LIVE_SUSPECT,
    RECORD_SIZE,
    RECORD_STRUCT,
    SAN_DOUBLE_FREE,
    SAN_USE_AFTER_FREE,
    FlightRecError,
    FlightRecord,
    decode_records,
)
from repro.i2o.function_codes import PRIVATE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executive import Executive
    from repro.hw.clock import Clock
    from repro.i2o.frame import Frame

logger = logging.getLogger(__name__)

DUMP_MAGIC = 0x43455246  # b"FREC" little-endian
DUMP_VERSION = 2  # 2: one ``dispatch`` record replaced the begin/end pair
#: magic, version, node, record size, reserved, capacity, total, crc, reason
DUMP_HEADER = struct.Struct("<IHHHHIQI24s")
DUMP_HEADER_SIZE = DUMP_HEADER.size  # 52

_U64 = 0xFFFFFFFFFFFFFFFF
_pack_into = RECORD_STRUCT.pack_into

#: Spills one recorder writes for *survivable* incidents (handler
#: exceptions and dispatch-budget overruns, one shared count): a device
#: failing every dispatch must not turn forensics into a disk-thrashing
#: loop.  Every incident is still recorded in the ring; fatal paths
#: (``hard_stop``, watchdog, sanitizer) always spill.
MAX_INCIDENT_SPILLS = 4

_SANITIZER_CODES = {
    "double-free": SAN_DOUBLE_FREE,
    "use-after-free": SAN_USE_AFTER_FREE,
}


class FlightRecorder(DispatchObserver):
    """Per-executive bounded event ring with crash spill-to-disk.

    A dispatch observer: ``exe.attach(FlightRecorder(...))`` writes one
    ``dispatch`` record per dispatch (its duration is what the
    collector's ``exe_dispatch_ns_p50``/``_p99`` are taken over; it
    also records the loop's release of the frame, which writes no
    ``frame-release`` of its own) and
    sets ``exe.flightrec``, which the fabric's other record sites read —
    ``frame_send`` among them, to :meth:`stamp` trace ids.  The ring
    is the only per-node store of frame-lifecycle facts: spans,
    critical paths and post-mortems are projections of it
    (:mod:`repro.flightrec.timeline`).  ``node`` and ``clock`` may be
    left unset; they are adopted from the executive at attach time.
    Without a ``dump_dir`` the recorder still records (what the
    ``observability`` section attaches when it has no ``dir``) but
    :meth:`spill` is a no-op returning ``None``.

    A positive ``budget_ns`` arms slow-frame capture: a dispatch that
    takes longer records ``EV_SLOW_FRAME`` after its ``dispatch``
    record, counts in ``prof_slow_frames_total`` and spills the ring
    (reason ``slow-frame``) under the :data:`MAX_INCIDENT_SPILLS` cap,
    so the black box around the incident is on disk without anything
    having crashed.  0 leaves it off.

    ``name`` controls the dump filename (``<name>.flightrec``); give
    replacement executives that reuse a dead node's id a distinct name
    so their eventual spill does not overwrite the victim's black box.
    """

    label = "flight recorder"

    def __init__(
        self,
        node: int | None = None,
        *,
        capacity: int = 4096,
        dump_dir: str | os.PathLike[str] | None = None,
        clock: "Clock | None" = None,
        name: str | None = None,
        budget_ns: int = 0,
    ) -> None:
        if capacity < 1:
            raise FlightRecError(f"ring capacity must be >= 1, got {capacity}")
        if budget_ns < 0:
            raise FlightRecError(
                f"dispatch budget must be >= 0 (0 = off), got {budget_ns}"
            )
        self.node = node
        self.capacity = capacity
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.clock = clock
        self.name = name
        self._ring = bytearray(capacity * RECORD_SIZE)
        self._seq = 0
        self.spills = 0
        #: incident spills withheld by MAX_INCIDENT_SPILLS
        self.suppressed_spills = 0
        self._incident_spills = 0
        self.budget_ns = budget_ns
        #: the duration a dispatch must exceed to trip: one comparison
        #: per dispatch, against a bound no duration reaches when off
        self._slow_over_ns = budget_ns or _U64
        #: dispatches that overran ``budget_ns``
        self.slow_frames = 0
        self._traces_rooted = 0
        #: the dispatched frame's context while a dispatch is running,
        #: ``None`` between dispatches
        self._active: int | None = None

    # -- accounting ----------------------------------------------------------
    @property
    def total_records(self) -> int:
        """Records ever written (including those the ring dropped)."""
        return self._seq

    @property
    def stored_records(self) -> int:
        return min(self._seq, self.capacity)

    @property
    def dropped_records(self) -> int:
        return max(0, self._seq - self.capacity)

    # -- the hot path --------------------------------------------------------
    # The hottest sites (dispatch, alloc, release) inline this method's
    # body: a Python call is a sizeable share of a record's cost (X9).
    def record(
        self, kind: int, a: int = 0, b: int = 0, c: int = 0,
        t_ns: int | None = None, d: int = 0,
    ) -> None:
        """Write one event into the ring (wrapping over the oldest),
        stamped ``t_ns`` or, when that is ``None``, a fresh clock read."""
        if t_ns is None:
            clock = self.clock
            t_ns = clock.now_ns() if clock is not None \
                else time.perf_counter_ns()
        seq = self._seq
        self._seq = seq + 1
        offset = (seq % self.capacity) * RECORD_SIZE
        try:
            _pack_into(self._ring, offset, seq, t_ns, a, b, c, kind | d << 8)
        except struct.error:
            # An argument outside u64 (a negative duration under a
            # manual clock): wrap it rather than lose the record.
            _pack_into(self._ring, offset, seq, t_ns & _U64, a & _U64, b & _U64,
                       c & _U64, (kind & 0xFF) | ((d << 8) & _U64))

    @property
    def records(self) -> tuple[FlightRecord, ...]:
        """The live ring decoded, oldest first — the same shape a
        loaded dump's ``records`` has, so every projection of a dump
        also runs on a live recorder.  O(capacity) per read."""
        return decode_records(self.ring_bytes())

    # -- the executive's own record sites ------------------------------------
    def note_alloc(self, size: int, in_flight: int) -> None:
        clock = self.clock
        t_ns = clock.now_ns() if clock is not None else time.perf_counter_ns()
        seq = self._seq
        self._seq = seq + 1
        _pack_into(self._ring, (seq % self.capacity) * RECORD_SIZE,
                   seq, t_ns, size, in_flight, 0, EV_FRAME_ALLOC)

    def note_release(self, context: int) -> None:
        clock = self.clock
        t_ns = clock.now_ns() if clock is not None else time.perf_counter_ns()
        seq = self._seq
        self._seq = seq + 1
        _pack_into(self._ring, (seq % self.capacity) * RECORD_SIZE,
                   seq, t_ns, context, 0, 0, EV_FRAME_RELEASE)

    # -- trace stamping (``frame_send``) ------------------------------------
    def stamp(self, frame: "Frame") -> None:
        """Give an outgoing ``PRIVATE`` frame a trace id
        (repro.core.tracing).

        A send from outside any dispatch roots a new trace here; a send
        made *during* a dispatch joins the dispatched frame's trace, and
        an untraced dispatch (a timer's, say) lazily roots one so its
        chain is still stitched.  A non-zero ``transaction_context``
        (application and timer contexts, contexts carried across the
        wire), replies and management frames (executive and utility
        requests: telemetry sweeps, discovery, host control) pass
        untouched, so the observer roots no trace of its own.
        """
        if frame.transaction_context != 0 or frame.is_reply \
                or frame.function != PRIVATE:
            return
        active = self._active
        if active is None:
            frame.transaction_context = self._root_trace()
            return
        if not is_trace_context(active):
            active = self._active = self._root_trace()
        frame.transaction_context = active

    def _root_trace(self) -> int:
        self._traces_rooted += 1
        return make_trace_id(self.node or 0, self._traces_rooted)

    # -- the observer contract -----------------------------------------------
    def on_attach(self, exe: "Executive") -> None:
        """Adopt node id and clock when unset; record liveness transitions; spill
        on sanitizer violations *before* they raise (when the allocator
        has the ``on_violation`` slot)."""
        if self.node is None:
            self.node = exe.node
        if self.clock is None:
            self.clock = exe.clock
        if exe.flightrec is None:
            exe.flightrec = self
        else:
            # A sim-plane cost ledger charges at the record sites and
            # passes every fact on: ride behind it.
            exe.flightrec.ring = self
        exe.peers.on_alive(self._peer_alive)
        exe.peers.on_suspect(self._peer_suspect)
        exe.peers.on_dead(self._peer_dead)
        allocator = exe.pool.allocator
        if hasattr(allocator, "on_violation"):
            allocator.on_violation = self._violation

    def on_detach(self, exe: "Executive") -> None:
        if exe.flightrec is self:
            exe.flightrec = None
        else:
            exe.flightrec.ring = None
        for callback in (self._peer_alive, self._peer_suspect, self._peer_dead):
            exe.peers.unsubscribe(callback)
        allocator = exe.pool.allocator
        if getattr(allocator, "on_violation", None) == self._violation:
            allocator.on_violation = None

    def export_counters(self) -> dict[str, object]:
        return {
            "flightrec_records_total": self.total_records,
            "flightrec_dropped_total": self.dropped_records,
            "flightrec_spills_total": self.spills,
            "flightrec_spills_suppressed_total": self.suppressed_spills,
            "prof_slow_frames_total": self.slow_frames,
        }

    def _peer_alive(self, node: int) -> None:
        self.record(EV_LIVENESS, node, LIVE_ALIVE)

    def _peer_suspect(self, node: int) -> None:
        self.record(EV_LIVENESS, node, LIVE_SUSPECT)

    def _peer_dead(self, node: int) -> None:
        self.record(EV_LIVENESS, node, LIVE_DEAD)

    def _violation(self, kind: str) -> None:
        self.record(EV_SANITIZER, _SANITIZER_CODES.get(kind, 0))
        self.spill("sanitizer")

    def dispatch_begin(self, rec: DispatchRecord) -> None:
        self._active = rec.context

    # One record per dispatch, written when it is over: start time,
    # queue wait, duration and the loop's release of the frame ride
    # together, so the ring pays one pack per dispatched frame and is
    # the only store of its duration.
    # The header inlines pack3(target, function, xfunction): the fields
    # come from a validated header, already in range, and this is the
    # recorder's hottest path (X9).
    def dispatch_end(self, rec: DispatchRecord) -> None:
        self._active = None
        start = rec.start_ns
        duration = rec.end_ns - start
        enqueued = rec.enqueued_ns
        wait = start - enqueued if enqueued is not None else 0
        if rec.released:  # a negative wait fails the pack: see below
            wait |= DISPATCH_RELEASED
        hdr = (rec.target << 32) | (rec.function << 16) | rec.xfunction
        failed = rec.outcome == OUTCOME_HANDLER_ERROR
        if failed:
            self.record(EV_DISPATCH_ERROR, rec.context, hdr, 0, rec.end_ns)
        seq = self._seq
        self._seq = seq + 1
        try:
            _pack_into(self._ring, (seq % self.capacity) * RECORD_SIZE,
                       seq, start, rec.context, hdr, wait,
                       EV_DISPATCH | duration << 8)
        except struct.error:
            # A negative wait (a manual clock) wraps without reading
            # as released.
            self._seq = seq
            self.record(EV_DISPATCH, rec.context, hdr, wait & DISPATCH_WAIT_MASK
                        | (DISPATCH_RELEASED if rec.released else 0),
                        start, duration)
        if failed:
            self._incident("dispatch-exception")
        if duration > self._slow_over_ns:
            self.slow_frames += 1
            self.record(EV_SLOW_FRAME, rec.context, hdr, duration, rec.end_ns)
            self._incident("slow-frame")

    def _incident(self, reason: str) -> None:
        if self._incident_spills < MAX_INCIDENT_SPILLS:
            self._incident_spills += 1
            self.spill(reason)
        else:
            self.suppressed_spills += 1

    # -- spill ---------------------------------------------------------------
    def ring_bytes(self) -> bytes:
        """The stored records, oldest first (ring unwrapped)."""
        if self._seq < self.capacity:
            return bytes(self._ring[: self._seq * RECORD_SIZE])
        cut = (self._seq % self.capacity) * RECORD_SIZE
        return bytes(self._ring[cut:]) + bytes(self._ring[:cut])

    def dump_bytes(self, reason: str) -> bytes:
        body = self.ring_bytes()
        header = DUMP_HEADER.pack(
            DUMP_MAGIC,
            DUMP_VERSION,
            (self.node or 0) & 0xFFFF,
            RECORD_SIZE,
            0,
            self.capacity,
            self._seq,
            zlib.crc32(body),
            reason.encode("ascii", "replace")[:24],
        )
        return header + body

    def dump_path(self) -> Path | None:
        if self.dump_dir is None:
            return None
        stem = self.name if self.name else f"node{self.node or 0:03d}"
        return self.dump_dir / f"{stem}.flightrec"

    def spill(self, reason: str) -> Path | None:
        """Write the ring to disk atomically; returns the dump path.

        Runs on crash paths (``hard_stop``, watchdog quarantine,
        dispatch exception handlers, sanitizer violations), so a disk
        failure is logged and swallowed — forensics must never turn a
        survivable fault into a fatal one.  No-op without a dump dir.
        """
        path = self.dump_path()
        if path is None:
            return None
        data = self.dump_bytes(reason)
        tmp = path.with_name(path.name + ".tmp")
        try:
            self.dump_dir.mkdir(parents=True, exist_ok=True)  # type: ignore[union-attr]
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            logger.exception(
                "node %s: flight-recorder spill (%s) to %s failed",
                self.node, reason, path,
            )
            return None
        self.spills += 1
        logger.info(
            "node %s: flight recorder spilled %d record(s) to %s (%s)",
            self.node, self.stored_records, path, reason,
        )
        return path
