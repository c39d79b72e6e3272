"""Experiment X4 — §4: multiple peer transports in parallel.

The paper: *"As it is possible to configure each device instance with
a route, we can use multiple transports to send and receive in
parallel.  This is a vital functionality that is not covered by other
comparable middleware products yet."*

Measurement (simulation plane): one node streams a fixed volume of
one-way messages to a peer, over one Myrinet rail versus two rails
with traffic split by per-device routes.  With the wire as bottleneck,
two rails approach 2x the delivered bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.report import format_table
from repro.core.device import Listener
from repro.core.executive import Executive
from repro.core.probes import CostModel
from repro.core.simnode import SimNode
from repro.hw.myrinet import Fabric
from repro.i2o.frame import Frame
from repro.sim.kernel import Simulator
from repro.transports.agent import PeerTransportAgent
from repro.transports.simgm import SimGmTransport

XF_DATA = 0x0030


class _Source(Listener):
    device_class = "bench_source"

    def __init__(self, name: str = "source") -> None:
        super().__init__(name)
        self.targets: list[int] = []
        self.to_send = 0
        self.payload = b""
        self.sent = 0

    def pump(self, burst: int = 4) -> None:
        """Send up to ``burst`` messages, alternating across targets."""
        for _ in range(min(burst, self.to_send)):
            target = self.targets[self.sent % len(self.targets)]
            self.send(target, self.payload, xfunction=XF_DATA,
                      transaction_context=self.sent)
            self.sent += 1
            self.to_send -= 1


class _Sink(Listener):
    device_class = "bench_sink"

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self.received = 0
        self.bytes = 0
        self.last_at_ns = 0

    def on_plugin(self) -> None:
        self.bind(XF_DATA, self._on_data)

    def _on_data(self, frame: Frame) -> None:
        self.received += 1
        self.bytes += frame.payload_size
        self.last_at_ns = self._require_live().clock.now_ns()


@dataclass
class MultirailResult:
    one_rail_mb_s: float
    two_rail_mb_s: float

    @property
    def speedup(self) -> float:
        return self.two_rail_mb_s / self.one_rail_mb_s

    def report(self) -> str:
        return format_table(
            ["rails", "delivered MB/s"],
            [
                ("1 x Myrinet", f"{self.one_rail_mb_s:.1f}"),
                ("2 x Myrinet", f"{self.two_rail_mb_s:.1f}"),
                ("speedup", f"{self.speedup:.2f}x"),
            ],
            title="X4: multi-rail operation via per-device routes",
        )


def _run_arm(rails: int, *, messages: int, payload: int) -> float:
    sim = Simulator()
    fabrics = [Fabric(sim) for _ in range(rails)]
    exe_a, exe_b = Executive(node=0), Executive(node=1)
    node_a = SimNode(sim, exe_a, cost_model=CostModel.optimised_allocator())
    node_b = SimNode(sim, exe_b, cost_model=CostModel.optimised_allocator())
    pta_a = PeerTransportAgent.attach(exe_a)
    pta_b = PeerTransportAgent.attach(exe_b)
    for i, fabric in enumerate(fabrics):
        pta_a.register(SimGmTransport(fabric, name=f"gm{i}", send_tokens=64),
                       default=(i == 0))
        pta_b.register(SimGmTransport(fabric, name=f"gm{i}", send_tokens=64),
                       default=(i == 0))
    node_a.attach_transport_hooks()
    node_b.attach_transport_hooks()
    # One sink per rail; each sink's proxy is pinned to its rail.
    sinks = [_Sink(name=f"sink{i}") for i in range(rails)]
    sink_tids = [exe_b.install(s) for s in sinks]
    source = _Source()
    exe_a.install(source)
    source.targets = [
        exe_a.routes.create_proxy(1, tid, transport=f"gm{i}")
        for i, tid in enumerate(sink_tids)
    ]
    source.payload = bytes(payload)
    source.to_send = messages

    def feed() -> None:
        source.pump(burst=8)
        if source.to_send > 0:
            sim.after(20_000, feed)  # refill every 20 µs of virtual time

    sim.at(0, feed)
    sim.run()
    received = sum(s.received for s in sinks)
    if received != messages:
        raise RuntimeError(f"lost messages: {received}/{messages}")
    finish_ns = max(s.last_at_ns for s in sinks)
    total_bytes = sum(s.bytes for s in sinks)
    return total_bytes / (finish_ns / 1e9) / 1e6  # MB/s


def run_multirail(messages: int = 400, payload: int = 4096) -> MultirailResult:
    return MultirailResult(
        one_rail_mb_s=_run_arm(1, messages=messages, payload=payload),
        two_rail_mb_s=_run_arm(2, messages=messages, payload=payload),
    )
