"""Experiment X10 — queue depth under fan-out saturation.

A burst source fans one message type out to several slow consumers on
one node, emitting faster than the executive drains.  Without edge
credits the scheduler queue grows with the burst (the overrun failure
mode §3.2's bounded FIFOs exist to prevent); with credits the producer
is gated at the consumers' declared capacity, so the peak queue depth
is bounded by ``credits × fan_out`` regardless of how hard the source
pushes.  The ``shed`` policy trades completeness for the same bound
without parking.

Three configurations drive the identical burst schedule:

``uncapped``
    routes without edges — the pre-dataflow behaviour;
``park``
    credit-gated edges, overflow parked in the outbox and resumed
    in order as credits return; what the full outbox refuses is its
    own column, park overflow, and never a shed;
``shed``
    credit-gated edges, overflow dropped and counted.

Every run finishes with a pool-conservation check, so running the
bench under ``REPRO_SANITIZE=1`` proves the park/shed/resume paths
leak no frames (the CI gate does exactly that): a leak raises, a
capped peak over its bound is a gate violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.dataflow.registry import _unregister, message_type
from repro.dataflow.wiring import wire_dataflow
from repro.bench.report import format_table

DEFAULT_SINKS = 4
DEFAULT_ROUNDS = 200
DEFAULT_BURST = 16
DEFAULT_CREDITS = 32

XF_BURST = 0x0B10


class _BurstSink(Listener):
    device_class = "bench_sink"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.received = 0

    def on_plugin(self) -> None:
        self.bind(XF_BURST, self._take)

    def _take(self, frame) -> None:
        if not frame.is_reply:
            self.received += 1


@dataclass
class _RunStats:
    emitted: int = 0
    delivered: int = 0
    shed: int = 0
    park_overflow: int = 0
    peak_queue: int = 0
    peak_parked: int = 0
    bound: int | None = None  # None: uncapped


def _run_config(
    *,
    credits: int | None,
    policy: str = "park",
    n_sinks: int = DEFAULT_SINKS,
    rounds: int = DEFAULT_ROUNDS,
    burst: int = DEFAULT_BURST,
) -> _RunStats:
    # Identical re-registration is idempotent, so repeated runs in one
    # process are fine; each run unregisters its type on completion.
    mtype = message_type(
        f"bench.burst-{policy}", XF_BURST, mode="fanout",
        on_saturation=policy,
    )
    exe = Executive(node=0)
    # The run's type is declared per instance, then the routes (and,
    # when capped, one ``credits``-wide edge per sink) are derived.
    source = Listener("src")
    source.emits = (mtype,)
    exe.install(source)
    sinks = [_BurstSink(f"sink{i}") for i in range(n_sinks)]
    for sink in sinks:
        sink.consumes = (mtype,)
        exe.install(sink)
    if credits is None:
        _, ledger = wire_dataflow({0: exe}, backpressure=False)
    else:
        _, ledger = wire_dataflow({0: exe}, edge_credits=credits)
    outbox = exe.dataflow_outbox

    stats = _RunStats(
        bound=None if credits is None else credits * n_sinks
    )
    for _ in range(rounds):
        for _ in range(burst):
            source.emit(mtype, b"x" * 64)
            stats.emitted += n_sinks
        # One partial drain per burst round: the source outruns the
        # dispatcher, which is the saturation under test.
        exe.step()
        stats.peak_queue = max(stats.peak_queue, len(exe.scheduler))
        stats.peak_parked = max(stats.peak_parked, outbox.depth)
    exe.run_until_idle()

    stats.delivered = sum(sink.received for sink in sinks)
    stats.shed = ledger.shed(exe.node)
    stats.park_overflow = ledger.park_overflow(exe.node)
    exe.pool.check_conservation()  # zero leaks, poison-checked under sanitizer
    if stats.delivered + stats.shed + stats.park_overflow != stats.emitted:
        raise RuntimeError(
            f"lost frames: {stats.delivered} delivered + {stats.shed} shed "
            f"+ {stats.park_overflow} park overflow != {stats.emitted} emitted"
        )
    _unregister(mtype.name)
    return stats


@dataclass
class BackpressureResult:
    stats: dict[str, _RunStats] = field(default_factory=dict)

    def violations(self) -> list[str]:
        """Capped configurations whose peak queue exceeded the bound."""
        return [
            f"{name}: peak queue {s.peak_queue} exceeds bound {s.bound}"
            for name, s in self.stats.items()
            if s.bound is not None and s.peak_queue > s.bound
        ]

    def report(self) -> str:
        rows = [
            (
                name,
                str(s.bound) if s.bound is not None else "-",
                str(s.peak_queue),
                str(s.peak_parked),
                str(s.shed),
                str(s.park_overflow),
                f"{s.delivered}/{s.emitted}",
            )
            for name, s in self.stats.items()
        ]
        return format_table(
            ["config", "bound", "peak queue", "peak parked", "shed",
             "park overflow", "delivered"],
            rows,
            title="X10: queue depth under fan-out saturation",
        )


def run_backpressure(
    n_sinks: int = DEFAULT_SINKS,
    rounds: int = DEFAULT_ROUNDS,
    burst: int = DEFAULT_BURST,
    credits: int = DEFAULT_CREDITS,
) -> BackpressureResult:
    result = BackpressureResult()
    common = dict(n_sinks=n_sinks, rounds=rounds, burst=burst)
    result.stats["uncapped"] = _run_config(credits=None, **common)
    result.stats["park"] = _run_config(
        credits=credits, policy="park", **common
    )
    result.stats["shed"] = _run_config(
        credits=credits, policy="shed", **common
    )
    return result

