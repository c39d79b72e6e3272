"""The event manager: trigger intake, builder allocation, cleanup.

Round-robins incoming events over its builder units, broadcasts the
readout command to every readout unit, and on ``XF_EVENT_DONE``
instructs the readout units to clear their buffers — the control flow
of the CMS event builder the paper's group went on to construct with
XDAQ.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.device import Listener
from repro.daq.protocol import (
    EVENT_ID,
    MT_ABANDON,
    MT_ALLOCATE,
    MT_CLEAR,
    MT_EVENT_DONE,
    MT_READOUT,
    MT_TRIGGER,
    XF_EVENT_DONE,
    XF_TRIGGER,
    check_int,
)
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.tid import Tid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.durable.segments import SnapshotStore


#: Version stamp inside every EVM snapshot; bump on layout change.
SNAPSHOT_VERSION = 1


class EventManager(Listener):
    """Coordinates triggers, readout, building and cleanup.

    ``max_in_flight`` throttles the trigger: when that many events are
    being built, further triggers queue inside the EVM and are released
    as events complete — the back-pressure mechanism every real event
    builder needs so a trigger burst cannot exhaust readout buffers.
    ``None`` disables throttling.

    ``event_timeout_ns`` arms a completion deadline per event (via the
    I2O timer facility): an event whose builder never reports done —
    crashed, quarantined, unplugged — is reassigned to the next builder
    in the ring, up to ``max_reassignments`` times.  Readout buffers
    are still intact (CLEAR is only sent on completion), so the new
    builder can fetch every fragment.  0 disables recovery.

    With a :class:`~repro.durable.segments.SnapshotStore` attached
    (``snapshot_store``), the EVM persists its state — the in-flight
    event table, builder ring position, per-event reassignment counts
    and the completed/lost history — after every state-changing
    dispatch.  A replacement EVM on a restarted node calls
    :meth:`recover` once its routes are wired and resumes building against
    the still-intact readout buffers: in-flight events are re-launched
    (READOUT is idempotent on the RUs, ALLOCATE restarts the builder
    cleanly) and re-delivered triggers for events it already knows are
    suppressed as duplicates instead of being built twice.
    """

    device_class = "daq_eventmanager"
    consumes = (MT_TRIGGER, MT_EVENT_DONE)
    emits = (MT_READOUT, MT_ALLOCATE, MT_CLEAR, MT_ABANDON)

    def __init__(self, name: str = "evm",
                 max_in_flight: int | None = None,
                 event_timeout_ns: int = 0,
                 max_reassignments: int = 3) -> None:
        super().__init__(name)
        if max_in_flight is not None:
            check_int("max_in_flight", max_in_flight, 1)
        check_int("event_timeout_ns", event_timeout_ns, 0)
        check_int("max_reassignments", max_reassignments, 0)
        self.max_in_flight = max_in_flight
        self.event_timeout_ns = event_timeout_ns
        self.max_reassignments = max_reassignments
        self._rr: list[int] = []
        self._rr_index = 0
        self._assigned: dict[int, int] = {}  # event_id -> bu_id
        self._throttled: list[int] = []  # event ids awaiting release
        self._deadlines: dict[int, int] = {}  # event_id -> timer_id
        self._attempts: dict[int, int] = {}  # event_id -> assignments so far
        self.reassignments = 0
        self.readouts_dropped = 0
        self.builders_dropped = 0
        self.lost_events: list[int] = []
        self.triggers = 0
        self.completed = 0
        self.completed_ids: list[int] = []
        self.keep_completed = 4096
        self._completed_set: set[int] = set()
        self.duplicate_triggers = 0
        self.restores = 0
        #: durable state cell; assign (or let bootstrap assign) before
        #: traffic to persist a snapshot after every mutation
        self.snapshot_store: "SnapshotStore | None" = None

    def on_dataflow_connected(self) -> None:
        """The declared routes are installed: build the builder ring.
        A re-wire that keeps the same builders keeps the ring's place."""
        rr = sorted(self.bu_tids)
        if rr != self._rr:
            self._rr, self._rr_index = rr, 0

    @property
    def ru_tids(self) -> dict[int, Tid]:
        """Live ru_id -> TiD view over the MT_READOUT route table."""
        return self.dataflow_targets(MT_READOUT)

    @property
    def bu_tids(self) -> dict[int, Tid]:
        """Live bu_id -> TiD view over the MT_ALLOCATE route table."""
        return self.dataflow_targets(MT_ALLOCATE)

    def on_plugin(self) -> None:
        self.bind(XF_TRIGGER, self._on_trigger)
        self.bind(XF_EVENT_DONE, self._on_done)

    def on_reset(self) -> None:
        self._assigned.clear()
        self._throttled.clear()
        for timer_id in self._deadlines.values():
            self.cancel_timer(timer_id)
        self._deadlines.clear()
        self._attempts.clear()

    # -- handlers --------------------------------------------------------------
    def _on_trigger(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        (event_id,) = EVENT_ID.unpack_from(frame.payload, 0)
        self.intake_trigger(event_id)

    def intake_trigger(self, event_id: int) -> None:
        """Admit one trigger, deduplicated against everything the EVM
        already knows about the event.

        Public so a durable-stream consumer can feed the EVM
        *synchronously within its own dispatch* — the delivery, the
        intake and the snapshot write then commit or vanish together
        on a crash.  The dedup matters after recovery: a sender
        replaying its journal re-delivers any trigger whose ack record
        died with the crashed node, and re-building an event that is
        assigned (or already completed) would double-count it.
        """
        if not self._rr:
            raise I2OError(f"event manager {self.name} is not connected")
        if (
            event_id in self._assigned
            or event_id in self._completed_set
            or event_id in self._throttled
            or event_id in self.lost_events
        ):
            self.duplicate_triggers += 1
            return
        self.triggers += 1
        if (
            self.max_in_flight is not None
            and len(self._assigned) >= self.max_in_flight
        ):
            self._throttled.append(event_id)
        else:
            self._launch(event_id)
        self._autosave()

    def _launch(self, event_id: int, avoid: int | None = None) -> None:
        payload = EVENT_ID.pack(event_id)
        # 1. tell every readout unit to capture its slice (idempotent:
        #    an RU regenerates deterministically and keeps existing
        #    buffers, so re-launching after a timeout is safe even when
        #    the original command was the message that got lost);
        self.emit(MT_READOUT, payload)
        # 2. hand the event to the next builder in the ring.
        self._assign(event_id, avoid=avoid)

    def _assign(self, event_id: int, avoid: int | None = None) -> None:
        bu_id = self._rr[self._rr_index]
        self._rr_index = (self._rr_index + 1) % len(self._rr)
        if bu_id == avoid and len(self._rr) > 1:
            # Don't hand a timed-out event straight back to the builder
            # that just failed it.
            bu_id = self._rr[self._rr_index]
            self._rr_index = (self._rr_index + 1) % len(self._rr)
        self._assigned[event_id] = bu_id
        self._attempts[event_id] = self._attempts.get(event_id, 0) + 1
        if self.event_timeout_ns > 0:
            self._deadlines[event_id] = self.start_timer(
                self.event_timeout_ns, context=event_id
            )
        self.emit(MT_ALLOCATE, EVENT_ID.pack(event_id), key=bu_id)

    def on_timer(self, context: int, frame: Frame) -> None:
        """Completion deadline passed: reassign or declare the event lost."""
        event_id = context
        if event_id not in self._assigned:
            return  # completed while the expiry frame was in flight
        self._deadlines.pop(event_id, None)
        failed_bu = self._assigned.pop(event_id)
        self._abandon(event_id, failed_bu)
        if self._attempts.get(event_id, 0) > self.max_reassignments:
            self.lost_events.append(event_id)
            self._attempts.pop(event_id, None)
            # Free the readout buffers of the abandoned event.
            self.emit(MT_CLEAR, EVENT_ID.pack(event_id))
            self._release_throttled()
            self._autosave()
            return
        self.reassignments += 1
        self._launch(event_id, avoid=failed_bu)
        self._autosave()

    def _abandon(self, event_id: int, bu_id: int) -> None:
        # Tell the builder an event was taken from to drop its partial (if
        # it is routed: a dropped builder or a hand-wired rig is not).
        if bu_id in self.dataflow_targets(MT_ABANDON):
            self.emit(MT_ABANDON, EVENT_ID.pack(event_id), key=bu_id)

    def _on_done(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        (event_id,) = EVENT_ID.unpack_from(frame.payload, 0)
        if self._assigned.pop(event_id, None) is None:
            return  # duplicate completion
        timer_id = self._deadlines.pop(event_id, None)
        if timer_id is not None:
            self.cancel_timer(timer_id)
        self._attempts.pop(event_id, None)
        self.completed += 1
        if len(self.completed_ids) < self.keep_completed:
            self.completed_ids.append(event_id)
        self._completed_set.add(event_id)
        self.emit(MT_CLEAR, EVENT_ID.pack(event_id))
        self._release_throttled()
        self._autosave()

    # -- supervision hook -------------------------------------------------
    def on_peer_dead(self, node: int) -> None:
        """Degrade gracefully when a peer node dies.

        Called by the supervision cascade *after* discovery has run its
        failover, so a successfully re-bound proxy no longer routes to
        the dead node and is kept.  What still points there (or was
        parked) is removed: dead readout units shrink the event format,
        dead builder units leave the ring and their in-flight events
        are relaunched immediately rather than waiting for the timeout.
        """
        dead_rus = self.drop_unreachable_targets(
            node, types=(MT_READOUT, MT_CLEAR)
        )
        self.readouts_dropped += len(dead_rus)
        dead_bus = self.drop_unreachable_targets(node, types=(MT_ALLOCATE, MT_ABANDON))
        self.builders_dropped += len(dead_bus)
        if dead_bus:
            self.on_dataflow_connected()  # rebuild the ring
            orphans = sorted(
                ev for ev, bu in self._assigned.items() if bu in dead_bus
            )
            for event_id in orphans:
                self._assigned.pop(event_id)
                timer_id = self._deadlines.pop(event_id, None)
                if timer_id is not None:
                    self.cancel_timer(timer_id)
                if self._rr:
                    self.reassignments += 1
                    self._launch(event_id)
                else:
                    self.lost_events.append(event_id)
                    self._attempts.pop(event_id, None)
        self._autosave()

    # -- durability --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The EVM's recoverable state as one JSON-safe document.

        Captured: the in-flight event table, the throttle queue, the
        builder ring and its cursor, per-event attempt counts, and the
        completed/lost history the post-restart dedup needs.  *Not*
        captured: armed timers (restore re-arms deadlines) and the
        RU/BU TiD maps (proxy TiDs are process-local; the replacement
        EVM's routes are re-derived first).
        """
        return {
            "version": SNAPSHOT_VERSION,
            "assigned": {str(ev): bu for ev, bu in self._assigned.items()},
            "throttled": list(self._throttled),
            "attempts": {str(ev): n for ev, n in self._attempts.items()},
            "rr": list(self._rr),
            "rr_index": self._rr_index,
            "triggers": self.triggers,
            "completed": self.completed,
            "completed_ids": list(self.completed_ids),
            "lost": list(self.lost_events),
            "reassignments": self.reassignments,
            "duplicate_triggers": self.duplicate_triggers,
        }

    def restore(self, snap: dict[str, Any]) -> None:
        """Adopt a snapshot and re-issue every in-flight event so
        building resumes immediately.

        Call once the routes are wired: relaunching needs live RU/BU
        routes.  READOUT is idempotent on the RUs (existing buffers
        are kept), and a fresh ALLOCATE resets the builder's partial
        state for the event, so re-launching an event that was mid
        build is always safe.  Events whose recorded builder left the
        ring while this EVM was down are reassigned (counted in
        ``reassignments``); per-event attempt counts carry over, so
        the ``max_reassignments`` bound holds across restarts.
        """
        version = snap.get("version")
        if version != SNAPSHOT_VERSION:
            raise I2OError(
                f"cannot restore EVM snapshot version {version!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        assigned = {int(k): int(v) for k, v in snap["assigned"].items()}
        if assigned and not self._rr:
            raise I2OError(
                f"event manager {self.name}: no builder routes connected; "
                f"wire the cluster before restore()"
            )
        self._assigned = assigned
        self._throttled = [int(x) for x in snap["throttled"]]
        self._attempts = {int(k): int(v) for k, v in snap["attempts"].items()}
        self.triggers = int(snap["triggers"])
        self.completed = int(snap["completed"])
        self.completed_ids = [int(x) for x in snap["completed_ids"]]
        self._completed_set = set(self.completed_ids)
        self.lost_events = [int(x) for x in snap["lost"]]
        self.reassignments = int(snap["reassignments"])
        self.duplicate_triggers = int(snap.get("duplicate_triggers", 0))
        if self._rr and [int(b) for b in snap["rr"]] == self._rr:
            self._rr_index = int(snap["rr_index"]) % len(self._rr)
        else:
            # The builder ring changed shape while we were away; the
            # persisted cursor is meaningless, restart the round-robin.
            self._rr_index = 0
        for timer_id in self._deadlines.values():
            self.cancel_timer(timer_id)
        self._deadlines.clear()
        self.restores += 1
        self._relaunch_assigned()
        self._autosave()

    def _relaunch_assigned(self) -> None:
        payloads = {ev: EVENT_ID.pack(ev) for ev in self._assigned}
        for event_id in sorted(self._assigned):
            bu_id = self._assigned[event_id]
            if bu_id not in self.bu_tids:
                # Its builder is gone: reassign (attempt count carries
                # over from the snapshot, bounding crash-loop retries).
                self._assigned.pop(event_id)
                self.reassignments += 1
                self._launch(event_id)
                continue
            self.emit(MT_READOUT, payloads[event_id])
            if self.event_timeout_ns > 0:
                self._deadlines[event_id] = self.start_timer(
                    self.event_timeout_ns, context=event_id
                )
            self.emit(MT_ALLOCATE, payloads[event_id], key=bu_id)

    def recover(self) -> bool:
        """Restore from the attached snapshot store, if it has state.

        Returns True when a snapshot was found and restored.  Raises
        on a damaged snapshot (:class:`JournalCorruption`) — silently
        starting cold would drop every in-flight event.
        """
        if self.snapshot_store is None:
            raise I2OError(
                f"event manager {self.name} has no snapshot store attached"
            )
        snap = self.snapshot_store.load()
        if snap is None:
            return False
        self.restore(snap)
        return True

    def _autosave(self) -> None:
        if self.snapshot_store is not None:
            self.snapshot_store.save(self.snapshot())

    def _release_throttled(self) -> None:
        """Back-pressure release: a freed slot admits a queued trigger."""
        if self._throttled and (
            self.max_in_flight is None
            or len(self._assigned) < self.max_in_flight
        ):
            self._launch(self._throttled.pop(0))

    def export_counters(self) -> dict[str, object]:
        return {
            "triggers": self.triggers,
            "completed": self.completed,
            "in_flight": len(self._assigned),
            "throttled": len(self._throttled),
            "reassignments": self.reassignments,
            "lost": len(self.lost_events),
            "readouts_dropped": self.readouts_dropped,
            "builders_dropped": self.builders_dropped,
            "duplicate_triggers": self.duplicate_triggers,
            "restores": self.restores,
        }

    @property
    def in_flight(self) -> int:
        return len(self._assigned)
