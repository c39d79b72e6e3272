"""Ping-pong drivers for both planes.

``run_xdaq_gm_pingpong`` is the paper's blackbox setup on the
simulation plane: two executives on a modelled Myrinet fabric, the
flooder/echo device pair, one-way latency = RTT / 2.

``run_native_pingpong`` is the honesty check: the same framework code
in real time over an in-process transport, measured with real clocks.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bench.devices import EchoDevice, PingDevice
from repro.core.executive import Executive
from repro.core.probes import CostModel
from repro.core.simnode import SimNode
from repro.hw.myrinet import Fabric, MyrinetParams
from repro.sim.kernel import Simulator
from repro.transports.agent import PeerTransportAgent
from repro.transports.simgm import SimGmTransport


@dataclass
class PingPongResult:
    payload_size: int
    rounds: int
    rtts_ns: list[int] = field(default_factory=list)
    #: whitebox stage medians (µs) from the echo node's cost ledger
    #: (simulation plane only)
    stage_medians_us: dict[str, float] = field(default_factory=dict)

    @property
    def one_way_us_mean(self) -> float:
        return float(np.mean(self.rtts_ns)) / 2.0 / 1000.0


@dataclass
class GmCluster:
    """A ready-to-run two-node XDAQ-over-GM setup (simulation plane)."""

    sim: Simulator
    fabric: Fabric
    exe_a: Executive
    exe_b: Executive
    node_a: SimNode
    node_b: SimNode
    ping: PingDevice
    echo: EchoDevice


def build_gm_cluster(
    *,
    cost_model: CostModel | None = None,
    params: MyrinetParams | None = None,
) -> GmCluster:
    """Assemble the paper's two-node benchmark cluster."""
    sim = Simulator()
    fabric = Fabric(sim, params)
    exe_a = Executive(node=0)
    exe_b = Executive(node=1)
    node_a = SimNode(sim, exe_a, cost_model=cost_model)
    node_b = SimNode(sim, exe_b, cost_model=cost_model)
    pta_a = PeerTransportAgent.attach(exe_a)
    pta_b = PeerTransportAgent.attach(exe_b)
    pta_a.register(SimGmTransport(fabric), default=True)
    pta_b.register(SimGmTransport(fabric), default=True)
    node_a.attach_transport_hooks()
    node_b.attach_transport_hooks()
    echo = EchoDevice()
    echo_tid = exe_b.install(echo)
    ping = PingDevice()
    exe_a.install(ping)
    ping.peer = exe_a.routes.create_proxy(1, echo_tid)
    return GmCluster(sim, fabric, exe_a, exe_b, node_a, node_b, ping, echo)


def run_xdaq_gm_pingpong(
    payload_size: int,
    rounds: int = 200,
    *,
    cost_model: CostModel | None = None,
    params: MyrinetParams | None = None,
    warmup: int = 5,
) -> PingPongResult:
    """The blackbox measurement for one payload size."""
    cluster = build_gm_cluster(cost_model=cost_model, params=params)
    cluster.ping.configure(cluster.ping.peer, payload_size, rounds + warmup)
    cluster.sim.at(0, cluster.ping.kick)
    cluster.sim.run()
    if len(cluster.ping.rtts_ns) != rounds + warmup:
        raise RuntimeError(
            f"ping-pong stalled: {len(cluster.ping.rtts_ns)} of "
            f"{rounds + warmup} rounds completed"
        )
    result = PingPongResult(payload_size, rounds, cluster.ping.rtts_ns[warmup:])
    result.stage_medians_us = {
        stage: float(np.median(samples)) / 1000.0
        for stage, samples in sorted(cluster.node_b.ledger.samples.items())
    }
    return result


def run_native_pingpong(
    payload_size: int,
    rounds: int = 200,
    *,
    warmup: int = 20,
    instrument: Callable[
        [tuple[Executive, ...]], AbstractContextManager[None]
    ] = lambda exes: nullcontext(),
) -> PingPongResult:
    """Real-time ping-pong over the in-process queue transport.

    Single-threaded: both executives are stepped from this loop, so the
    measurement is pure framework cost plus queue handoff — the native
    analogue of the blackbox test (absolute numbers are Python's, the
    *structure* matches; see EXPERIMENTS.md).  ``instrument`` is entered
    with the two executives around the measured loop: the overhead
    experiment attaches its observers there.
    """
    from repro.transports.queued import QueuePair, QueueTransport

    exe_a = Executive(node=0)
    exe_b = Executive(node=1)
    pair = QueuePair(0, 1)
    PeerTransportAgent.attach(exe_a).register(
        QueueTransport(pair, name="q"), default=True
    )
    PeerTransportAgent.attach(exe_b).register(
        QueueTransport(pair, name="q"), default=True
    )
    echo = EchoDevice()
    echo_tid = exe_b.install(echo)
    ping = PingDevice()
    exe_a.install(ping)
    ping.configure(
        exe_a.routes.create_proxy(1, echo_tid), payload_size, rounds + warmup)
    with instrument((exe_a, exe_b)):
        ping.kick()
        guard = 0
        while ping.remaining > 0:
            worked = exe_a.step() | exe_b.step()
            guard = 0 if worked else guard + 1
            if guard > 1000:
                raise RuntimeError(
                    f"native ping-pong stalled with {ping.remaining} rounds left"
                )
    return PingPongResult(payload_size, rounds, ping.rtts_ns[warmup:])
