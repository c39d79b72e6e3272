"""Experiment X11 — continuous-profiling overhead on the native path.

The sampling profiler touches the dispatch hot path in exactly one
place: its :class:`~repro.profile.sampler.DispatchSlot` observer does
a reference store at dispatch begin and a ``None`` store at the end.
Everything else (the stack walk) happens on the sampler's own thread,
stealing GIL slices rather than inline cycles.  Three configurations
run the same native ping-pong (two executives over the in-process
queue transport, stepped from the measuring thread — the N1 harness):

``off``
    the stock executive with no dispatch observer attached;
``sampling``
    a :class:`~repro.profile.sampler.SamplingProfiler` registered on
    both executives, watching the measuring thread, sampler thread
    running at the configured rate;
``full-kit``
    sampling plus everything the ``profiling`` bootstrap section can
    arm: dispatch-latency timing with exemplar capture and a
    :class:`~repro.profile.watch.SlowFrameWatch` (budget set high
    enough never to trip — measuring the hook, not the spill).

Reported as median RTT ns over ``repeats`` interleaved runs; the CLI
exits non-zero when sampling/off exceeds ``--max-ratio``, which is
what the CI gate invokes (held at 1.5x).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import dataclass, field

import numpy as np

from repro.bench.devices import EchoDevice, PingDevice
from repro.bench.report import format_table
from repro.core.executive import Executive
from repro.core.metrics import DISPATCH_LATENCY_BUCKETS_NS, DispatchTimer
from repro.core.tracing import FrameTracer
from repro.profile.sampler import SamplingProfiler
from repro.profile.watch import SlowFrameWatch
from repro.transports.agent import PeerTransportAgent
from repro.transports.queued import QueuePair, QueueTransport

DEFAULT_PAYLOAD = 256
DEFAULT_ROUNDS = 400
DEFAULT_REPEATS = 3
DEFAULT_HZ = 487.0
#: full-kit watch budget: high enough that no dispatch ever trips it,
#: so the bench measures the comparison, not the spill path.
_NEVER_TRIPS_NS = 10**12

CONFIGS = ("off", "sampling", "full-kit")


def _run_once(
    config: str, payload: int, rounds: int, hz: float, warmup: int = 20
) -> float:
    """One native ping-pong run under ``config``; median RTT ns."""
    exe_a = Executive(node=0)
    exe_b = Executive(node=1)
    pair = QueuePair(0, 1)
    PeerTransportAgent.attach(exe_a).register(
        QueueTransport(pair, name="q"), default=True
    )
    PeerTransportAgent.attach(exe_b).register(
        QueueTransport(pair, name="q"), default=True
    )
    profiler: SamplingProfiler | None = None
    if config != "off":
        profiler = SamplingProfiler(hz=hz)
        for exe in (exe_a, exe_b):
            profiler.register(exe)
            profiler.watch_thread(exe.node)  # both run on this thread
    if config == "full-kit":
        for exe in (exe_a, exe_b):
            exe.attach(FrameTracer(capacity=1024))
            exe.attach(DispatchTimer())
            exe.metrics.histogram(
                "exe_dispatch_ns", DISPATCH_LATENCY_BUCKETS_NS
            ).enable_exemplars()
            exe.attach(SlowFrameWatch(_NEVER_TRIPS_NS))
    echo = EchoDevice()
    echo_tid = exe_b.install(echo)
    ping = PingDevice()
    exe_a.install(ping)
    ping.configure(
        exe_a.create_proxy(1, echo_tid), payload, rounds + warmup
    )
    if profiler is not None:
        profiler.start()
    try:
        ping.kick()
        guard = 0
        while ping.remaining > 0:
            worked = exe_a.step() | exe_b.step()
            guard = 0 if worked else guard + 1
            if guard > 1000:
                raise RuntimeError(
                    f"ping-pong stalled with {ping.remaining} rounds left"
                )
    finally:
        if profiler is not None:
            profiler.stop()
    return float(np.median(ping.rtts_ns[warmup:]))


@dataclass
class ProfileBenchResult:
    rtt_ns: dict[str, float] = field(default_factory=dict)

    @property
    def sampling_overhead_ratio(self) -> float:
        """Sampler-on cost relative to the profiler-off hot path."""
        return self.rtt_ns["sampling"] / self.rtt_ns["off"]

    def report(self) -> str:
        off = self.rtt_ns["off"]
        rows = [
            (name, f"{ns:.0f}", f"{ns / off:.2f}x")
            for name, ns in self.rtt_ns.items()
        ]
        return format_table(
            ["config", "RTT ns (median)", "vs off"],
            rows,
            title="X11: continuous-profiling overhead on the native "
                  "ping-pong",
        )


def run_profile(
    payload: int = DEFAULT_PAYLOAD,
    rounds: int = DEFAULT_ROUNDS,
    repeats: int = DEFAULT_REPEATS,
    hz: float = DEFAULT_HZ,
) -> ProfileBenchResult:
    result = ProfileBenchResult()
    # Interleave configurations across repeats so ambient machine noise
    # (CI neighbours, thermal drift) hits all of them alike.
    samples: dict[str, list[float]] = {name: [] for name in CONFIGS}
    for _ in range(repeats):
        for name in CONFIGS:
            samples[name].append(_run_once(name, payload, rounds, hz))
    for name in CONFIGS:
        result.rtt_ns[name] = statistics.median(samples[name])
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.profile",
        description="Measure sampling-profiler overhead on the native "
                    "ping-pong path.",
    )
    parser.add_argument("--payload", type=int, default=DEFAULT_PAYLOAD)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--hz", type=float, default=DEFAULT_HZ)
    parser.add_argument(
        "--max-ratio", type=float, default=None,
        help="fail (exit 1) when sampling/off exceeds this ratio",
    )
    args = parser.parse_args(argv)
    result = run_profile(
        payload=args.payload, rounds=args.rounds,
        repeats=args.repeats, hz=args.hz,
    )
    print(result.report())
    ratio = result.sampling_overhead_ratio
    print(f"sampling/off ratio: {ratio:.3f}")
    if args.max_ratio is not None and ratio > args.max_ratio:
        print(f"FAIL: exceeds --max-ratio {args.max_ratio}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
