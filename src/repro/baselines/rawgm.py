"""The raw Myrinet/GM ping-pong test program (figure 6, middle slope).

Uses :class:`~repro.hw.gm.GmPort` directly — no executive, no frames,
no pool — exactly like the paper's baseline measurement: the
difference between XDAQ-over-GM and this program *is* the framework
overhead (figure 6, lowest plot).
"""

from __future__ import annotations

import numpy as np

from repro.hw.gm import GmPacket, GmPort
from repro.hw.myrinet import Fabric
from repro.sim.kernel import Simulator


class GmPingPong:
    """Two bare GM ports bouncing one message back and forth."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        *,
        payload_size: int,
        rounds: int,
        node_a: int = 0,
        node_b: int = 1,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.payload = bytes(payload_size or 1)
        self.rounds = rounds
        self.port_a = GmPort(fabric, node_a, recv_tokens=8)
        self.port_b = GmPort(fabric, node_b, recv_tokens=8)
        self.node_b = node_b
        self.rtts_ns: list[int] = []
        self._t0 = 0
        self._remaining = rounds
        self.port_a.set_receive_handler(self._on_reply)
        self.port_b.set_receive_handler(self._on_ping)

    def start(self) -> None:
        self.sim.at(self.sim.now, self._send_ping)

    def _send_ping(self) -> None:
        self._t0 = self.sim.now
        self.port_a.send_with_callback(self.payload, self.node_b)

    def _on_ping(self, packet: GmPacket) -> None:
        # Echo with identical content, like the paper's responder.
        self.port_b.provide_receive_buffer()
        self.port_b.send_with_callback(packet.data, packet.src_node)

    def _on_reply(self, packet: GmPacket) -> None:
        self.port_a.provide_receive_buffer()
        self.rtts_ns.append(self.sim.now - self._t0)
        self._remaining -= 1
        if self._remaining > 0:
            self._send_ping()

    def one_way_us(self) -> float:
        """Average one-way latency in µs (paper: RTT divided by two)."""
        if not self.rtts_ns:
            raise RuntimeError("ping-pong has not run")
        return float(np.mean(self.rtts_ns)) / 2.0 / 1000.0
