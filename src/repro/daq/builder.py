"""Builder units: assemble full events from distributed fragments.

On ``XF_ALLOCATE`` the builder requests one fragment from every
readout unit it knows (the n×m crossing traffic that gave XDAQ its
name), verifies each fragment's CRC and identity, and reports
``XF_EVENT_DONE`` to the event manager when the event is complete;
``XF_ABANDON`` (the event was reassigned or given up) drops a partial.
"""

from __future__ import annotations

from repro.core.device import Listener
from repro.daq.events import parse_fragment
from repro.daq.protocol import (
    EVENT_ID,
    MT_ABANDON,
    MT_ALLOCATE,
    MT_EVENT_DONE,
    MT_REQUEST_FRAGMENT,
    XF_ABANDON,
    XF_ALLOCATE,
    XF_REQUEST_FRAGMENT,
    check_int,
)
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.tid import Tid


class BuilderUnit(Listener):
    """Collects one fragment per readout unit into complete events."""

    device_class = "daq_builder"
    consumes = (MT_ALLOCATE, MT_ABANDON)
    emits = (MT_REQUEST_FRAGMENT, MT_EVENT_DONE)

    def __init__(self, name: str = "", bu_id: int = 0) -> None:
        check_int("bu_id", bu_id, 0)  # the EVM sorts its ring by it
        super().__init__(name or f"bu{bu_id}")
        self.bu_id = bu_id
        #: keyed ALLOCATE traffic reaches this builder under its bu_id
        self.dataflow_key = bu_id
        self._pending: dict[int, dict[int, bytes]] = {}
        self.built = 0
        self.bytes_built = 0
        self.corrupt = 0
        self.readouts_dropped = 0
        #: completed events kept for inspection (bounded)
        self.completed: list[tuple[int, int]] = []  # (event_id, size)
        self.keep_completed = 1024

    @property
    def ru_tids(self) -> dict[int, Tid]:
        """Live ru_id -> TiD view over the MT_REQUEST_FRAGMENT routes."""
        return self.dataflow_targets(MT_REQUEST_FRAGMENT)

    @property
    def evm_tid(self) -> Tid | None:
        targets = self.dataflow_targets(MT_EVENT_DONE)
        return next(iter(targets.values()), None)

    def on_plugin(self) -> None:
        self.bind(XF_ALLOCATE, self._on_allocate)
        self.bind(XF_ABANDON, self._on_abandon)
        self.bind(XF_REQUEST_FRAGMENT, self._on_fragment_reply)

    def on_reset(self) -> None:
        self._pending.clear()

    # -- handlers ----------------------------------------------------------
    def _on_allocate(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        if not self.ru_tids:
            raise I2OError(f"builder {self.name} has no readout units")
        (event_id,) = EVENT_ID.unpack_from(frame.payload, 0)
        self._pending[event_id] = {}
        self.emit(MT_REQUEST_FRAGMENT, EVENT_ID.pack(event_id))

    def _on_abandon(self, frame: Frame) -> None:
        # The event went elsewhere: later replies for it are stale.
        if not frame.is_reply:
            self._pending.pop(EVENT_ID.unpack_from(frame.payload, 0)[0], None)

    def _on_fragment_reply(self, frame: Frame) -> None:
        if not frame.is_reply:
            # Builders never serve fragments; refuse politely.
            self.reply(frame, fail=True)
            return
        if frame.is_failure:
            self.corrupt += 1
            return
        try:
            header, data = parse_fragment(frame.payload)
        except I2OError:
            self.corrupt += 1
            return
        fragments = self._pending.get(header.event_id)
        if fragments is None:
            return  # duplicate or stale reply
        fragments[header.ru_id] = data
        # >= rather than ==: the readout set may shrink (supervision
        # dropping a dead node) while fragments were already collected.
        if len(fragments) >= len(self.ru_tids):
            self._complete(header.event_id, fragments)

    def _complete(self, event_id: int, fragments: dict[int, bytes]) -> None:
        del self._pending[event_id]
        size = sum(len(d) for d in fragments.values())
        self.built += 1
        self.bytes_built += size
        if len(self.completed) < self.keep_completed:
            self.completed.append((event_id, size))
        if self.dataflow_targets(MT_EVENT_DONE):
            self.emit(MT_EVENT_DONE, EVENT_ID.pack(event_id))

    # -- supervision hook ---------------------------------------------------
    def on_peer_dead(self, node: int) -> None:
        """Drop readout units that became unreachable (their routes are
        parked or still lead to the dead node after discovery's
        failover pass), then re-check every pending event: an event
        that was only waiting for the dead slice completes with the
        fragments the surviving units supplied."""
        dead = self.drop_unreachable_targets(
            node, types=(MT_REQUEST_FRAGMENT,)
        )
        self.readouts_dropped += len(dead)
        if not dead or not self.ru_tids:
            return
        for event_id, fragments in list(self._pending.items()):
            if len(fragments) >= len(self.ru_tids):
                self._complete(event_id, fragments)

    def export_counters(self) -> dict[str, object]:
        return {
            "built": self.built,
            "bytes_built": self.bytes_built,
            "corrupt": self.corrupt,
            "in_flight": len(self._pending),
        }
