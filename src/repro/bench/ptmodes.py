"""Experiment X1 — §4: polling- vs task-mode peer transports.

The paper: *"To allow efficient operation in polling mode it is
advisable not to use more than one PT in this mode or to suspend other
PTs during periods in which low latency communication is required.
Otherwise a slow PT, e.g. a poll operation on a TCP socket would
negate the benefits of checking periodically a lightweight user level
network interface."*

Three arms measure native ping-pong latency over a *fast* queue PT
while a *slow* second PT (artificial poll delay, standing in for the
blocking TCP select) is present:

1. slow PT in polling mode, active  → every quantum pays its delay;
2. slow PT in polling mode, suspended → latency restored;
3. slow PT in task mode             → its thread blocks elsewhere;
   latency also restored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.devices import EchoDevice, PingDevice
from repro.bench.report import format_table
from repro.core.executive import Executive
from repro.transports.agent import PeerTransportAgent
from repro.transports.queued import QueuePair, QueueTransport


@dataclass
class PtModesResult:
    fast_only_us: float
    with_slow_polling_us: float
    with_slow_suspended_us: float
    with_slow_task_us: float

    def report(self) -> str:
        return format_table(
            ["configuration", "RTT us (median)"],
            [
                ("fast PT alone", f"{self.fast_only_us:.1f}"),
                ("+ slow PT, polling, active",
                 f"{self.with_slow_polling_us:.1f}"),
                ("+ slow PT, polling, suspended",
                 f"{self.with_slow_suspended_us:.1f}"),
                ("+ slow PT, task mode", f"{self.with_slow_task_us:.1f}"),
            ],
            title="X1: a slow polled PT negates a fast PT "
            "(suspend it, or run it in task mode)",
        )


def _run(slow_mode: str | None, *, suspend: bool, rounds: int,
         slow_delay_s: float) -> float:
    """Ping-pong over the fast pair with an optional slow PT present."""
    exe_a, exe_b = Executive(node=0), Executive(node=1)
    fast = QueuePair(0, 1)
    pta_a = PeerTransportAgent.attach(exe_a)
    pta_b = PeerTransportAgent.attach(exe_b)
    pta_a.register(QueueTransport(fast, name="fast"), default=True)
    pta_b.register(QueueTransport(fast, name="fast"), default=True)
    slow_pts = []
    if slow_mode is not None:
        slow = QueuePair(0, 1)
        for pta in (pta_a, pta_b):
            pt = QueueTransport(
                slow, name="slow", mode=slow_mode,
                artificial_delay_s=slow_delay_s,
            )
            pta.register(pt)
            slow_pts.append(pt)
            if suspend:
                pt.suspend()
    echo_tid = exe_b.install(EchoDevice())
    ping = PingDevice()
    exe_a.install(ping)
    ping.configure(exe_a.routes.create_proxy(1, echo_tid), 64, rounds)
    ping.kick()
    guard = 0
    while ping.remaining > 0 and guard < 200_000:
        worked = exe_a.step() | exe_b.step()
        guard += 1
    for pt in slow_pts:
        pt.shutdown()
    if ping.remaining:
        raise RuntimeError("ptmodes ping-pong stalled")
    return float(np.median(ping.rtts_ns)) / 1000.0


def run_ptmodes(rounds: int = 60, slow_delay_s: float = 0.0005) -> PtModesResult:
    return PtModesResult(
        fast_only_us=_run(None, suspend=False, rounds=rounds,
                          slow_delay_s=slow_delay_s),
        with_slow_polling_us=_run("polling", suspend=False, rounds=rounds,
                                  slow_delay_s=slow_delay_s),
        with_slow_suspended_us=_run("polling", suspend=True, rounds=rounds,
                                    slow_delay_s=slow_delay_s),
        with_slow_task_us=_run("task", suspend=False, rounds=rounds,
                               slow_delay_s=slow_delay_s),
    )
