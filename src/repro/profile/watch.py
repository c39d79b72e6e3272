"""Slow-frame auto-capture: budget overruns spill the black box.

A :class:`SlowFrameWatch` attached to an executive gives the dispatch
loop a latency budget.  When a dispatch exceeds it, the watch records
an ``EV_SLOW_FRAME`` flight-recorder event carrying the frame's trace
context, addressing triple and measured duration, then triggers a
recorder spill — so the post-mortem tooling (``python -m repro.diag
timeline``) holds the complete ring *around* the slow incident without
anything having crashed.

Spills are capped (``max_spills``) so one pathological device cannot
turn the watchdog into a disk-thrashing loop; every overrun is still
counted and recorded in the ring regardless.

The watch is a dispatch observer (``exe.attach(SlowFrameWatch(...))``):
it costs one integer comparison per dispatch on the record's shared
``start_ns``/``end_ns`` pair, and nothing when not attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.observer import DispatchObserver, DispatchRecord
from repro.flightrec.recorder import MAX_INCIDENT_SPILLS
from repro.flightrec.records import EV_SLOW_FRAME, pack3
from repro.i2o.errors import I2OError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executive import Executive


class SlowFrameWatch(DispatchObserver):
    """Threshold watchdog for dispatch latency."""

    label = "slow-frame watch"

    __slots__ = (
        "budget_ns", "spill_on_trip", "max_spills", "trips", "spills", "_exe",
    )

    def __init__(
        self,
        budget_ns: int,
        *,
        spill_on_trip: bool = True,
        max_spills: int = MAX_INCIDENT_SPILLS,
    ) -> None:
        if budget_ns <= 0:
            raise I2OError(
                f"slow-frame budget must be positive, got {budget_ns}"
            )
        self.budget_ns = budget_ns
        self.spill_on_trip = spill_on_trip
        self.max_spills = max_spills
        self.trips = 0
        self.spills = 0
        self._exe: "Executive | None" = None

    # -- the observer contract -----------------------------------------------
    def on_attach(self, exe: "Executive") -> None:
        """Arm this watch on an executive and expose trip counters."""
        self._exe = exe
        exe.metrics.gauge("prof_slow_frames_total", lambda: self.trips)
        exe.metrics.gauge("prof_slow_spills_total", lambda: self.spills)

    def on_detach(self, exe: "Executive") -> None:
        self._exe = None

    def dispatch_end(self, rec: DispatchRecord) -> None:
        elapsed = rec.end_ns - rec.start_ns
        if elapsed <= self.budget_ns:
            return
        # One dispatch blew the budget: count, record, maybe spill.
        self.trips += 1
        fr = self._exe.flightrec if self._exe is not None else None
        if fr is None:
            return
        fr.record(
            EV_SLOW_FRAME, rec.context,
            pack3(rec.target, rec.function, rec.xfunction),
            elapsed, t_ns=rec.end_ns,
        )
        if self.spill_on_trip and self.spills < self.max_spills:
            self.spills += 1
            fr.spill("slow-frame")
