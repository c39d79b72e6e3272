"""Hosting an executive on the discrete-event kernel.

A :class:`SimNode` models one processing node's CPU: it steps the
executive whenever there is work, converts the virtual CPU cost its
:class:`CostLedger` accrued into simulated time, and sleeps on a wake
event otherwise.  Because all of a node's costs serialise through its
single process, the model naturally captures the paper's single-CPU
executive ("the loop of control remains in the executive framework").

The executive carries no cost model: it reports the same lifecycle
facts on every plane and the ledger, attached through the ordinary
observer seam, charges the Table-1 stage each fact stands for (DESIGN
§13).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.core.executive import Executive
from repro.core.observer import OUTCOME_VANISHED, DispatchObserver, DispatchRecord
from repro.core.probes import CostModel
from repro.flightrec.records import EV_FRAME_INGEST, FlightRecord
from repro.hw.clock import SimClock
from repro.sim.kernel import Event, Simulator, delay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.watchdog import HandlerWatchdog
    from repro.flightrec.recorder import FlightRecorder
    from repro.i2o.frame import Frame


class CostLedger(DispatchObserver):
    """Imposes a :class:`CostModel` at the executive's record sites.

    The ledger holds ``exe.flightrec``, so it hears what the ring hears
    with no extra test on the native path; a flight recorder on the
    same node rides behind it as :attr:`ring` and is handed every fact
    unchanged — shared sites, separate storage (the ring also keeps
    stamping trace ids through :meth:`stamp`).  ``note_alloc`` and
    ``note_release`` are the executive's frameAlloc/frameFree and are
    charged; a release a transport writes with a bare :meth:`record`
    (GM's send-completion callback) costs the node's CPU nothing.

    :attr:`samples` are *inclusive*, like rdtsc probe pairs around
    nested code: PT processing contains the receive allocation, the
    application its handler's allocations, postprocessing the frees.
    """

    label = "cost ledger"

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self.ring: "FlightRecorder | None" = None
        #: the executive's watchdog, held against *modelled* cost: wall
        #: time means nothing to a handler running in virtual time
        self.watchdog: "HandlerWatchdog | None" = None
        #: virtual CPU time not yet turned into simulated delay; sim
        #: transports read it so the wire injection happens *after* the
        #: CPU work that preceded it — the overhead figure 6 isolates
        self.accrued_ns = 0
        self.samples: dict[str, list[int]] = {}
        self._alloc_ns = 0  # charged since the last ingest/dispatch edge
        self._free_ns = 0

    def charge(self, stage: str, ns: int, nested_ns: int = 0) -> None:
        """Accrue ``ns``; the sample adds ``nested_ns`` already charged
        inside the stage.  Hardware models charge their own costs here
        (FIFO management, paper §7)."""
        self.accrued_ns += ns
        self.samples.setdefault(stage, []).append(ns + nested_ns)

    # -- the observer contract -----------------------------------------------
    def on_attach(self, exe: Executive) -> None:
        self._exe = exe
        self.ring, exe.flightrec = exe.flightrec, self  # type: ignore[assignment]
        self.watchdog, exe.watchdog = exe.watchdog, None

    def on_detach(self, exe: Executive) -> None:
        exe.flightrec, exe.watchdog = self.ring, self.watchdog

    def dispatch_begin(self, rec: DispatchRecord) -> None:
        self._alloc_ns = self._free_ns = 0

    def dispatch_end(self, rec: DispatchRecord) -> None:
        cost = self.model.cost
        self.charge("demultiplex", cost("demultiplex"))
        if rec.outcome != OUTCOME_VANISHED:
            self.charge("upcall", cost("upcall"))
            self.charge("application", cost("application"), self._alloc_ns)
            self.charge("postprocess", cost("postprocess"), self._free_ns)
            watchdog = self.watchdog
            spent_ns = cost("application") + self._alloc_ns
            if watchdog is not None and spent_ns > watchdog.limit_ns:
                watchdog.overruns += 1
                self._exe._quarantine(
                    rec.target,
                    f"modelled handler cost {spent_ns} ns, "
                    f"budget {watchdog.limit_ns} ns",
                )
        self._alloc_ns = self._free_ns = 0

    # -- the record sites (what ``exe.flightrec`` is asked to do) ------------
    def note_alloc(self, size: int, in_flight: int) -> None:
        cost = self.model.cost("frame_alloc")
        self._alloc_ns += cost
        self.charge("frame_alloc", cost)
        if self.ring is not None:
            self.ring.note_alloc(size, in_flight)

    def note_release(self, context: int) -> None:
        cost = self.model.cost("frame_free")
        self._free_ns += cost
        self.charge("frame_free", cost)
        if self.ring is not None:
            self.ring.note_release(context)

    def stamp(self, frame: "Frame") -> None:
        # Trace ids cost the modelled CPU nothing; the ring stamps them.
        if self.ring is not None:
            self.ring.stamp(frame)

    def record(
        self, kind: int, a: int = 0, b: int = 0, c: int = 0,
        t_ns: int | None = None,
    ) -> None:
        if kind == EV_FRAME_INGEST:
            self.charge(
                "pt_processing", self.model.cost("pt_processing"),
                self._alloc_ns,
            )
            self._alloc_ns = 0
        if self.ring is not None:
            self.ring.record(kind, a, b, c, t_ns)

    def spill(self, reason: str) -> object:
        return self.ring.spill(reason) if self.ring is not None else None

    @property
    def records(self) -> tuple[FlightRecord, ...]:
        return self.ring.records if self.ring is not None else ()


class SimNode:
    """One node = one executive driven by one simulation process."""

    def __init__(
        self,
        sim: Simulator,
        executive: Executive,
        *,
        cost_model: CostModel | None = None,
    ) -> None:
        self.sim = sim
        self.executive = executive
        executive.clock = SimClock(sim)
        self.ledger = CostLedger(cost_model or CostModel.paper_table1())
        executive.attach(self.ledger)
        executive.msgi.on_work = self.wake
        self._wake_event: Event | None = None
        self._halted = False
        self.busy_ns = 0
        self.process = sim.process(self._run(), name=f"node{executive.node}")

    def attach_transport_hooks(self) -> None:
        """Hand every registered sim transport the ledger its wire
        offsets and FIFO costs go to (arrivals wake this node through
        ``msgi.wake``).  Call after the transports are registered."""
        if self.executive.pta is not None:
            for pt in self.executive.pta.transports():
                if hasattr(pt, "ledger"):
                    pt.ledger = self.ledger

    def wake(self) -> None:
        ev = self._wake_event
        if ev is not None and not ev.fired:
            self._wake_event = None
            ev.succeed()

    def halt(self) -> None:
        self._halted = True
        self.wake()

    def _run(self) -> Generator:
        exe = self.executive
        while not self._halted and not exe._halt_requested:
            worked = exe.step()
            cost, self.ledger.accrued_ns = self.ledger.accrued_ns, 0
            if cost:
                self.busy_ns += cost
                yield delay(cost)
                continue
            if worked:
                continue
            # Idle: sleep until new work or the next timer deadline.
            deadline = exe.timers.next_deadline_ns()
            self._wake_event = self.sim.event(f"node{exe.node}.wake")
            if deadline is not None:
                remaining = max(0, deadline - self.sim.now)
                yield self.sim.any_of(
                    [self._wake_event, self.sim.timeout(remaining)]
                )
                self._wake_event = None
            else:
                yield self._wake_event
