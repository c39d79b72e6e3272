"""Experiment X9 — the flight recorder's dispatch-path overhead.

The black box records two events per dispatched message (begin/end)
plus one per frame allocation and release, each a single preallocated
``pack_into`` — no allocation, no I/O until a crash path spills the
ring.  Three configurations drain the same message load:

``off``
    the stock executive with no recorder: no dispatch observer, and
    one ``is None`` test at each alloc/release record site;
``recording``
    a :class:`~repro.flightrec.FlightRecorder` attached (ring only,
    no dump dir — spills are crash-path, not steady-state);
``recording+traced``
    recorder plus a :class:`~repro.core.tracing.FrameTracer`, the
    configuration the cross-node timeline merge needs (trace ids ride
    the recorded contexts).

Reported as median ns/message over ``repeats`` runs; the CLI exits
non-zero when recording/off exceeds ``--max-ratio``, which is what the
CI gate invokes.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.dispatch import _Sink
from repro.bench.report import format_table
from repro.core.executive import Executive
from repro.core.tracing import FrameTracer
from repro.flightrec.recorder import FlightRecorder

DEFAULT_MESSAGES = 20_000
DEFAULT_REPEATS = 3
DEFAULT_CAPACITY = 4096


def _configs(capacity: int) -> dict[str, Callable[[], Executive]]:
    def off() -> Executive:
        return Executive(node=0, max_dispatch_per_step=1024)

    def recording() -> Executive:
        exe = off()
        exe.attach(FlightRecorder(capacity=capacity))
        return exe

    def recording_traced() -> Executive:
        exe = off()
        exe.attach(FrameTracer(capacity=1024))
        exe.attach(FlightRecorder(capacity=capacity))
        return exe

    return {
        "off": off,
        "recording": recording,
        "recording+traced": recording_traced,
    }


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
class FlightrecResult:
    ns_per_message: dict[str, float] = field(default_factory=dict)

    @property
    def recording_overhead_ratio(self) -> float:
        """Recorder-on cost relative to the recorder-off hot path."""
        return self.ns_per_message["recording"] / self.ns_per_message["off"]

    def report(self) -> str:
        off = self.ns_per_message["off"]
        rows = [
            (name, f"{ns:.0f}", f"{ns / off:.2f}x")
            for name, ns in self.ns_per_message.items()
        ]
        return format_table(
            ["config", "ns/message", "vs off"],
            rows,
            title="X9: flight-recorder overhead per dispatched message",
        )


def run_flightrec(
    messages: int = DEFAULT_MESSAGES,
    repeats: int = DEFAULT_REPEATS,
    capacity: int = DEFAULT_CAPACITY,
) -> FlightrecResult:
    result = FlightrecResult()
    configs = _configs(capacity)
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
        prog="python -m repro.bench.flightrec",
        description="Measure flight-recorder overhead on the dispatch path.",
    )
    parser.add_argument("--messages", type=int, default=DEFAULT_MESSAGES)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    parser.add_argument(
        "--max-ratio", type=float, default=None,
        help="fail (exit 1) when recording/off exceeds this ratio",
    )
    args = parser.parse_args(argv)
    result = run_flightrec(
        messages=args.messages, repeats=args.repeats, capacity=args.capacity
    )
    print(result.report())
    ratio = result.recording_overhead_ratio
    print(f"recording/off ratio: {ratio:.3f}")
    if args.max_ratio is not None and ratio > args.max_ratio:
        print(f"FAIL: exceeds --max-ratio {args.max_ratio}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
