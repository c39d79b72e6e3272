"""Experiment X6 — observability must be near-free when disabled.

The tracer and the dispatch-latency histogram sit on the per-message
hot path the whole paper is about (§5 measures it in nanoseconds), so
the PR 2 acceptance criterion is that *disabled* instrumentation costs
nothing measurable.  Four configurations drain the same message load:

``floor``
    an executive whose enqueue/send paths bypass even the ``is not
    None`` guards — the pre-observability hot path, reconstructed as a
    subclass so the comparison survives future refactors;
``off``
    the stock executive with no dispatch observer attached (the
    default) — what every node pays for being *observable*;
``traced``
    a :class:`~repro.core.tracing.FrameTracer` installed;
``timed``
    tracing plus the dispatch-latency histogram.

Reported as median ns/message over ``repeats`` runs; the CLI exits
non-zero when off/floor exceeds ``--max-ratio``, which is what the CI
gate invokes.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.report import format_table
from repro.core.executive import Executive
from repro.core.metrics import DispatchTimer
from repro.core.tracing import FrameTracer
from repro.i2o.frame import Frame

from repro.bench.dispatch import _Sink

DEFAULT_MESSAGES = 20_000
DEFAULT_REPEATS = 3


class _FloorExecutive(Executive):
    """The dispatch path exactly as it was before observability landed:
    no tracer guard on send/enqueue, no timing branch around dispatch."""

    def _enqueue(self, frame: Frame) -> None:
        self.scheduler.push(frame)

    def frame_send(self, frame: Frame) -> None:
        if frame.block is None:
            frame.validate()
        self.msgi.post_outbound(frame)


def _configs() -> dict[str, Callable[[], Executive]]:
    def floor() -> Executive:
        return _FloorExecutive(node=0, max_dispatch_per_step=1024)

    def off() -> Executive:
        return Executive(node=0, max_dispatch_per_step=1024)

    def traced() -> Executive:
        exe = off()
        exe.attach(FrameTracer(capacity=1024))
        return exe

    def timed() -> Executive:
        exe = traced()
        exe.attach(DispatchTimer())
        return exe

    return {"floor": floor, "off": off, "traced": traced, "timed": timed}


def _drain_once(make_exe: Callable[[], Executive], messages: int) -> float:
    exe = make_exe()
    sink = _Sink(name="sink")
    tid = exe.install(sink)
    for _ in range(messages):
        frame = exe.frame_alloc(8, target=tid, initiator=tid, xfunction=0x0001)
        exe.post_inbound(frame)
    t0 = time.perf_counter_ns()
    exe.run_until_idle()
    elapsed = time.perf_counter_ns() - t0
    if sink.hits != messages:
        raise RuntimeError(f"lost messages: {sink.hits}/{messages}")
    return elapsed / messages


@dataclass
class TelemetryResult:
    ns_per_message: dict[str, float] = field(default_factory=dict)

    @property
    def off_overhead_ratio(self) -> float:
        """Disabled-instrumentation cost relative to the floor."""
        return self.ns_per_message["off"] / self.ns_per_message["floor"]

    def report(self) -> str:
        floor = self.ns_per_message["floor"]
        rows = [
            (name, f"{ns:.0f}", f"{ns / floor:.2f}x")
            for name, ns in self.ns_per_message.items()
        ]
        return format_table(
            ["config", "ns/message", "vs floor"],
            rows,
            title="X6: observability overhead per dispatched message "
            "(off must ride the floor)",
        )


def run_telemetry(
    messages: int = DEFAULT_MESSAGES, repeats: int = DEFAULT_REPEATS
) -> TelemetryResult:
    result = TelemetryResult()
    configs = _configs()
    # Interleave configurations across repeats so ambient machine noise
    # (CI neighbours, thermal drift) hits all of them alike.
    samples: dict[str, list[float]] = {name: [] for name in configs}
    for _ in range(repeats):
        for name, make_exe in configs.items():
            samples[name].append(_drain_once(make_exe, messages))
    for name in configs:
        result.ns_per_message[name] = statistics.median(samples[name])
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.telemetry",
        description="Measure observability overhead on the dispatch hot path.",
    )
    parser.add_argument("--messages", type=int, default=DEFAULT_MESSAGES)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument(
        "--max-ratio", type=float, default=None,
        help="fail (exit 1) when off/floor exceeds this ratio",
    )
    args = parser.parse_args(argv)
    result = run_telemetry(messages=args.messages, repeats=args.repeats)
    print(result.report())
    ratio = result.off_overhead_ratio
    print(f"off/floor ratio: {ratio:.3f}")
    if args.max_ratio is not None and ratio > args.max_ratio:
        print(f"FAIL: exceeds --max-ratio {args.max_ratio}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
