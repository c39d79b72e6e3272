"""Experiments X6, X9 and X11 — what each instrument costs the hot path.

Observability sits on the per-message path the whole paper is about
(§5 measures it in nanoseconds), so every instrument's on/off ratio is
measured by the same program on two loads:

``drain``
    one executive drains a preloaded queue into a counting sink; the
    unit is ns per dispatched message.  Arms: ``floor`` (the dispatch
    path as it was before observability landed, reconstructed as a
    subclass so the comparison survives refactors), ``off`` (the stock
    executive, nothing attached — what every node pays for being
    *observable*) and ``recording`` (the flight recorder: its ring
    writes and the trace-id stamping it does at ``frame_send`` — the
    ring is the only store of spans and dispatch durations, so this is
    what ``observability`` tracing, the collector's P50/P99 and the
    cross-node timeline merge cost on the hot path; those projections
    are computed when read, and spills are crash-path, not
    steady-state).
``pingpong``
    the native ping-pong (:func:`run_native_pingpong`); the unit is
    median RTT ns.  Arms: ``off``, ``sampling`` (a
    :class:`SamplingProfiler` watching both executives, its thread
    running) and ``full-kit`` (sampling plus everything the
    ``observability`` bootstrap section arms: the recorder with a
    dispatch budget that never trips — the comparison is measured, not
    the spill).

Every arm runs once per short batch, so host noise slower than a batch
hits an arm and its baseline alike; a ratio is the median of the
in-batch ratios, printed with its IQR and the ratio of medians.
:data:`GATES` holds the three ratios CI enforces.  Each arm's absolute
cost, the median in-batch ``arm - off`` in ns per message or per RTT,
is printed beside its ratio and not gated: a ratio over ``off`` rises
when ``off`` gets cheaper, a cost in ns does not.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

from repro.bench.dispatch import drain_ns_per_message
from repro.bench.pingpong import run_native_pingpong
from repro.bench.report import format_table
from repro.core.executive import Executive
from repro.flightrec.recorder import FlightRecorder
from repro.i2o.frame import Frame
from repro.profile.sampler import SamplingProfiler

PINGPONG_PAYLOAD = 256
SAMPLER_HZ = 487.0
#: high enough that no dispatch ever trips the full-kit budget
_NEVER_TRIPS_NS = 10**12


class _FloorExecutive(Executive):
    """The dispatch path without two observability guards: no stamp
    guard on send, no recorder guard on a routed enqueue.  It inherits
    ``step`` and ``_dispatch_one``, so the intake's one recorder test
    per pass and the ``if observers`` tests around each dispatch (all
    false with nothing attached) are in the floor as well."""

    def _enqueue(self, frame: Frame) -> None:
        self.scheduler.push(frame)

    def frame_send(self, frame: Frame) -> None:
        if frame.block is None:
            frame.validate()
        self.msgi.post_outbound(frame)


def _recording(exe: Executive) -> None:
    exe.attach(FlightRecorder(capacity=4096))


def _full_kit(exe: Executive) -> None:
    exe.attach(FlightRecorder(capacity=4096, budget_ns=_NEVER_TRIPS_NS))


@dataclass(frozen=True)
class Arm:
    load: str
    name: str
    #: what to attach to each executive of the load
    attach: Callable[[Executive], None] = lambda exe: None
    #: register a running SamplingProfiler on every executive first
    sampled: bool = False
    executive: type[Executive] = Executive


ARMS = (
    Arm("drain", "floor", executive=_FloorExecutive),
    Arm("drain", "off"),
    Arm("drain", "recording", _recording),
    Arm("pingpong", "off"),
    Arm("pingpong", "sampling", sampled=True),
    Arm("pingpong", "full-kit", _full_kit, sampled=True),
)

#: (load, arm, baseline arm, largest allowed arm/baseline ratio)
GATES = (
    ("drain", "off", "floor", 1.25),
    ("drain", "recording", "off", 2.0),
    ("pingpong", "sampling", "off", 1.5),
)


@contextmanager
def _armed(arm: Arm, exes: tuple[Executive, ...]) -> Iterator[None]:
    profiler = SamplingProfiler(hz=SAMPLER_HZ) if arm.sampled else None
    for exe in exes:
        if profiler is not None:
            profiler.register(exe)
            profiler.watch_thread(exe.node)  # all stepped from this thread
        arm.attach(exe)
    if profiler is not None:
        profiler.start()
    try:
        yield
    finally:
        if profiler is not None:
            profiler.stop()


def _measure(arm: Arm, messages: int, rounds: int) -> float:
    if arm.load == "drain":
        exe = arm.executive(node=0, max_dispatch_per_step=1024)
        with _armed(arm, (exe,)):
            return drain_ns_per_message(exe, messages)
    result = run_native_pingpong(
        PINGPONG_PAYLOAD, rounds, instrument=partial(_armed, arm)
    )
    return statistics.median(result.rtts_ns)


@dataclass
class OverheadResult:
    #: load -> arm -> one reading per batch (ns per message on drain,
    #: median RTT ns on pingpong); reading i of every arm is batch i's
    batches: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    @property
    def ns(self) -> dict[str, dict[str, float]]:
        """load -> arm -> median reading over the batches."""
        return {
            load: {name: statistics.median(v) for name, v in arms.items()}
            for load, arms in self.batches.items()
        }

    def ratios(self, load: str, arm: str, baseline: str) -> list[float]:
        """arm/baseline within each batch."""
        readings = self.batches[load]
        return [a / b for a, b in zip(readings[arm], readings[baseline])]

    def ratio(self, load: str, arm: str, baseline: str) -> float:
        """What the gate reads: the median of the per-batch ratios."""
        return statistics.median(self.ratios(load, arm, baseline))

    def cost(self, load: str, arm: str) -> float:
        """The arm's absolute cost: the median of the per-batch
        ``arm - off`` differences, in the load's unit."""
        readings = self.batches[load]
        return statistics.median(
            a - b for a, b in zip(readings[arm], readings["off"])
        )

    def iqr(self, load: str, arm: str, baseline: str) -> float:
        ratios = self.ratios(load, arm, baseline)
        if len(ratios) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        return q3 - q1

    def ratio_of_medians(self, load: str, arm: str, baseline: str) -> float:
        ns = self.ns[load]
        return ns[arm] / ns[baseline]

    def violations(self) -> list[str]:
        return [
            f"{load} {arm}/{baseline} = {self.ratio(load, arm, baseline):.3f}"
            f" exceeds {limit}"
            for load, arm, baseline, limit in GATES
            if self.ratio(load, arm, baseline) > limit
        ]

    def _table(self, load: str, unit: str, title: str) -> str:
        return format_table(
            ["config", unit, "vs off", "IQR", "medians", "cost ns"],
            [(name, f"{ns:.0f}", f"{self.ratio(load, name, 'off'):.2f}x",
              f"{self.iqr(load, name, 'off'):.2f}",
              f"{self.ratio_of_medians(load, name, 'off'):.2f}x",
              f"{self.cost(load, name):+.0f}")
             for name, ns in self.ns[load].items()],
            title=title,
        )

    def report(self) -> str:
        batches = len(self.batches["drain"]["off"])
        return "\n\n".join([
            self._table("drain", "ns/message", "X6/X9: observer overhead "
                        "per dispatched message (off must ride the floor)"),
            self._table("pingpong", "RTT ns (median)", "X11: continuous-"
                        "profiling overhead on the native ping-pong"),
            "gates: " + ", ".join(
                f"{load} {arm}/{baseline} "
                f"{self.ratio(load, arm, baseline):.3f} "
                f"(IQR {self.iqr(load, arm, baseline):.3f}, medians "
                f"{self.ratio_of_medians(load, arm, baseline):.3f}) "
                f"<= {limit}"
                for load, arm, baseline, limit in GATES
            ) + f" — the median of {batches} per-batch ratios",
        ])


def run_overhead(
    messages: int = 2_000, rounds: int = 100, batches: int = 21
) -> OverheadResult:
    result = OverheadResult()
    for batch in range(batches):
        # Alternate the direction so no arm always runs first.
        for arm in ARMS if batch % 2 == 0 else reversed(ARMS):
            result.batches.setdefault(arm.load, {}).setdefault(
                arm.name, []
            ).append(_measure(arm, messages, rounds))
    return result
