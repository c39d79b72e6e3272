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
    *observable*), ``recording`` (the flight recorder: its ring and
    the trace-id stamping it does at ``frame_send`` — the ring is the
    only span store, so this is what ``observability`` tracing and the
    cross-node timeline merge cost; spills are crash-path, not
    steady-state) and ``timed`` (recording + dispatch-latency
    histogram).
``pingpong``
    the N1 native ping-pong (:func:`run_native_pingpong`); the unit is
    median RTT ns.  Arms: ``off``, ``sampling`` (a
    :class:`SamplingProfiler` registered on both executives, its
    thread running) and ``full-kit`` (sampling plus everything the
    ``observability`` bootstrap section arms: timing with exemplar
    capture and a dispatch budget that never trips — the comparison is
    measured, not the spill).

Every arm runs once per repeat, interleaved, and reports its median.
:data:`GATES` holds the three ratios CI enforces.
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
from repro.core.metrics import DISPATCH_LATENCY_BUCKETS_NS, DispatchTimer
from repro.flightrec.recorder import FlightRecorder
from repro.i2o.frame import Frame
from repro.profile.sampler import SamplingProfiler

PINGPONG_PAYLOAD = 256
SAMPLER_HZ = 487.0
#: high enough that no dispatch ever trips the full-kit budget
_NEVER_TRIPS_NS = 10**12


class _FloorExecutive(Executive):
    """The dispatch path exactly as it was before observability landed:
    no stamp guard on send, no recorder guard on enqueue, no timing
    branch around dispatch."""

    def _enqueue(self, frame: Frame) -> None:
        self.scheduler.push(frame)

    def frame_send(self, frame: Frame) -> None:
        if frame.block is None:
            frame.validate()
        self.msgi.post_outbound(frame)


def _recording(exe: Executive) -> None:
    exe.attach(FlightRecorder(capacity=4096))


def _timed(exe: Executive) -> None:
    _recording(exe)
    exe.attach(DispatchTimer())


def _full_kit(exe: Executive) -> None:
    exe.attach(FlightRecorder(capacity=4096, budget_ns=_NEVER_TRIPS_NS))
    exe.attach(DispatchTimer())
    exe.metrics.histogram(
        "exe_dispatch_ns", DISPATCH_LATENCY_BUCKETS_NS
    ).enable_exemplars()


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
    Arm("drain", "timed", _timed),
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
    #: load -> arm -> median ns (per message on drain, per RTT on pingpong)
    ns: dict[str, dict[str, float]] = field(default_factory=dict)

    def ratio(self, load: str, arm: str, baseline: str) -> float:
        return self.ns[load][arm] / self.ns[load][baseline]

    def violations(self) -> list[str]:
        return [
            f"{load} {arm}/{baseline} = {self.ratio(load, arm, baseline):.3f}"
            f" exceeds {limit}"
            for load, arm, baseline, limit in GATES
            if self.ratio(load, arm, baseline) > limit
        ]

    def report(self) -> str:
        drain, pingpong = self.ns["drain"], self.ns["pingpong"]
        return "\n\n".join([
            format_table(
                ["config", "ns/message", "vs floor", "vs off"],
                [(name, f"{ns:.0f}", f"{ns / drain['floor']:.2f}x",
                  f"{ns / drain['off']:.2f}x") for name, ns in drain.items()],
                title="X6/X9: observer overhead per dispatched message "
                "(off must ride the floor)",
            ),
            format_table(
                ["config", "RTT ns (median)", "vs off"],
                [(name, f"{ns:.0f}", f"{ns / pingpong['off']:.2f}x")
                 for name, ns in pingpong.items()],
                title="X11: continuous-profiling overhead on the native "
                "ping-pong",
            ),
            "gates: " + ", ".join(
                f"{load} {arm}/{baseline} "
                f"{self.ratio(load, arm, baseline):.3f} <= {limit}"
                for load, arm, baseline, limit in GATES
            ),
        ])


def run_overhead(
    messages: int = 20_000, rounds: int = 400, repeats: int = 3
) -> OverheadResult:
    # Interleave the arms across repeats so ambient machine noise (CI
    # neighbours, thermal drift) hits all of them alike.
    samples: dict[Arm, list[float]] = {arm: [] for arm in ARMS}
    for _ in range(repeats):
        for arm in ARMS:
            samples[arm].append(_measure(arm, messages, rounds))
    result = OverheadResult()
    for arm, values in samples.items():
        result.ns.setdefault(arm.load, {})[arm.name] = statistics.median(values)
    return result
