"""The trigger source: where events begin.

Emits ``XF_TRIGGER`` messages carrying a monotonically increasing
event id to the event manager.  Two drive modes:

* **manual** — ``fire()`` / ``fire_burst(n)`` from test or bench code;
* **timer** — when enabled with a positive ``interval_ns`` parameter,
  uses the I2O timer facility to self-trigger periodically, showing
  the paper's "even timer expirations trigger messages" machinery in
  an application role.
"""

from __future__ import annotations

from repro.core.device import Listener
from repro.daq.protocol import EVENT_ID, MT_TRIGGER
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame


class TriggerSource(Listener):
    """Generates the event stream."""

    device_class = "daq_trigger"
    emits = (MT_TRIGGER,)

    def __init__(self, name: str = "trigger") -> None:
        super().__init__(name)
        self.next_event_id = 1
        self.fired = 0
        #: triggers the full admission window refused (dead time)
        self.shed = 0
        self.max_events: int | None = None
        self.parameters.setdefault("interval_ns", "0")
        self._timer_id: int | None = None

    def export_counters(self) -> dict[str, object]:
        return {"fired": self.fired, "shed": self.shed,
                "next_event_id": self.next_event_id}

    # -- manual drive ---------------------------------------------------------
    def fire(self) -> int | None:
        """Emit one trigger; returns the event id used, or ``None``
        when the admission window (the credits of the trigger edge,
        each held by the EVM until its event is finished) is full.  A
        shed trigger never left this node, so it is counted in
        ``shed`` and consumes no event id: ids stay dense over
        ``fired``."""
        if not self.dataflow_targets(MT_TRIGGER):
            raise I2OError("trigger is not connected to an event manager")
        event_id = self.next_event_id
        if self.emit(MT_TRIGGER, EVENT_ID.pack(event_id))[2]:
            self.shed += 1
            return None
        self.next_event_id += 1
        self.fired += 1
        return event_id

    def fire_burst(self, count: int) -> list[int]:
        """``count`` attempts; the ids of the triggers that went out."""
        fired = (self.fire() for _ in range(count))
        return [event_id for event_id in fired if event_id is not None]

    # -- timer drive ------------------------------------------------------------
    def on_enable(self) -> None:
        interval = int(self.parameters.get("interval_ns", "0"))
        if interval > 0:
            self._timer_id = self.start_timer(interval, context=interval)

    def on_quiesce(self) -> None:
        if self._timer_id is not None:
            self.cancel_timer(self._timer_id)
            self._timer_id = None

    def on_timer(self, context: int, frame: Frame) -> None:
        if self.max_events is not None and self.fired >= self.max_events:
            return
        self.fire()
        # Re-arm: context carries the interval.
        if context > 0:
            self._timer_id = self.start_timer(context, context=context)
