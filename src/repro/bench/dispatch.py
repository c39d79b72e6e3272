"""Experiment X2 — §3.2/§6: event dispatch scales with device count.

The paper's scalability argument: *"There is no need for a central
place in which incoming messages have to be parsed.  It is the sole
responsibility of each device to know what it shall do with the
incoming message."*  If that holds, per-message dispatch cost must be
(near-)independent of how many devices are registered: demultiplexing
is one dict hop to the device plus one dict hop in its table, never a
scan over devices or handlers.

Native measurement: preload M messages round-robin across N local
sink devices; time draining the executive; report ns/message for
N in 1..1000.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.devices import XF_PING, CountingSink
from repro.bench.report import format_table
from repro.core.executive import Executive

DEFAULT_DEVICE_COUNTS = (1, 10, 100, 1000)


@dataclass
class DispatchResult:
    device_counts: list[int] = field(default_factory=list)
    ns_per_message: list[float] = field(default_factory=list)

    @property
    def worst_ratio(self) -> float:
        """Largest slowdown vs the single-device case."""
        base = self.ns_per_message[0]
        return max(v / base for v in self.ns_per_message)

    def report(self) -> str:
        rows = [
            (n, f"{ns:.0f}", f"{ns / self.ns_per_message[0]:.2f}x")
            for n, ns in zip(self.device_counts, self.ns_per_message)
        ]
        return format_table(
            ["devices", "ns/message", "vs 1 device"],
            rows,
            title="X2: dispatch cost vs number of registered devices "
            "(scalable = flat)",
        )


def drain_ns_per_message(
    exe: Executive, messages: int, devices: int = 1
) -> float:
    """Preload ``messages`` round-robin across ``devices`` fresh sinks
    on ``exe``, then time draining them all."""
    sinks = [CountingSink(name=f"sink{i}") for i in range(devices)]
    tids = [exe.install(s) for s in sinks]
    for i in range(messages):
        tid = tids[i % devices]
        frame = exe.frame_alloc(8, target=tid, initiator=tid, xfunction=XF_PING)
        exe.post_inbound(frame)
    t0 = time.perf_counter_ns()
    exe.run_until_idle()
    elapsed = time.perf_counter_ns() - t0
    delivered = sum(s.hits for s in sinks)
    if delivered != messages:
        raise RuntimeError(f"lost messages: {delivered}/{messages}")
    return elapsed / messages


def run_dispatch(
    device_counts: tuple[int, ...] = DEFAULT_DEVICE_COUNTS,
    messages: int = 20_000,
) -> DispatchResult:
    result = DispatchResult()
    for count in device_counts:
        exe = Executive(node=0, max_dispatch_per_step=1024)
        result.device_counts.append(count)
        result.ns_per_message.append(
            drain_ns_per_message(exe, messages, devices=count)
        )
    return result
