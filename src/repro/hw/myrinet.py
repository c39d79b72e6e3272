"""A discrete-event model of a Myrinet cluster interconnect.

Paper §5 benchmarked XDAQ over *"a Myricom M2M-PCI64 network interface
card containing a LANai 7 processor [running] the standard Myrinet/GM
MCP program"* on a 33 MHz/32-bit PCI, Pentium II 400 MHz host.  We have
no such hardware, so this module models the data path it provided:

    host memory --PCI DMA--> NIC SRAM --link--> switch --link--> NIC
    SRAM --PCI DMA--> host memory

Each stage is a :class:`Hop` with a fixed per-message latency and a
per-byte serialisation rate.  Myrinet is a **cut-through** network: a
stage begins forwarding a message as soon as its head arrives, so the
end-to-end time of an uncontended message is

    sum(fixed latencies)  +  bytes x max(per-byte rates)  + small flit terms

— i.e. the per-byte cost is paid once, at the bottleneck stage (the
32-bit PCI DMA), not summed over stages.  This matches the LogGP view
of Myrinet in the literature and reproduces the *linear* latency slopes
of the paper's figure 6.  Contention is modelled per hop: a hop busy
with one message delays the next (``free_at`` bookkeeping), which is
what serialises the links and DMA engines under load.

Default parameters are calibrated (see ``MyrinetParams``) so that a raw
GM one-way latency is ~16 µs + ~0.021 µs/byte, consistent with
published GM 1.1.3 measurements on the paper's host class and with the
scale of figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.i2o.errors import I2OError
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.gm import GmNic


class FabricError(I2OError):
    """Topology misuse (unknown node, duplicate attach, ...)."""


@dataclass(frozen=True)
class MyrinetParams:
    """Calibration constants for the fabric model (nanoseconds).

    ``pci_dma_ns_per_byte`` dominates: a 33 MHz/32-bit PCI moves
     4 bytes/cycle peak (132 MB/s) but short DMA bursts with setup
    overhead achieved roughly 40 % of that in practice, giving the
    ~48 MB/s effective rate that makes GM's measured slope.
    """

    #: host library + descriptor post, per send (CPU-adjacent, fixed)
    host_send_overhead_ns: int = 2_000
    #: LANai MCP processing per message, each direction
    mcp_process_ns: int = 5_000
    #: receive-side callback delivery overhead
    host_recv_overhead_ns: int = 2_000
    #: PCI DMA engine: per-message setup / per-byte rate
    pci_dma_setup_ns: int = 800
    pci_dma_ns_per_byte: float = 20.5
    #: 1.28 Gbit/s Myrinet link
    link_ns_per_byte: float = 6.25
    link_propagation_ns: int = 200
    #: crossbar routing decision (source-routed, header peek)
    switch_route_ns: int = 550
    #: cut-through granularity: a stage forwards after this many bytes
    #: (Myrinet forwards near byte-granularity; 16 keeps event counts low
    #: while making the flit term saturate below any realistic message)
    flit_bytes: int = 16
    #: per-message Myrinet header/CRC trailer on the wire
    wire_header_bytes: int = 16


@dataclass
class Hop:
    """One pipeline stage with FIFO occupancy bookkeeping."""

    name: str
    fixed_ns: int
    ns_per_byte: float
    free_at: int = 0
    messages: int = 0


def _cut_through_delivery(
    hops: list[Hop], start_ns: int, size_bytes: int, flit_bytes: int
) -> int:
    """Advance ``free_at`` on every hop and return the arrival time of
    the message tail at the far end.

    Recurrence (head/tail wavefront):

    * the head leaves hop *k* once the hop is free and the head has
      arrived from hop *k-1*, plus the hop's fixed latency;
    * the tail leaves hop *k* no earlier than (head out + full
      serialisation at this hop) and no earlier than (tail out of the
      previous hop + one flit of serialisation) — the cut-through
      coupling that stops per-byte costs from summing across hops.
    """
    head = start_ns
    tail = start_ns
    for hop in hops:
        queued_start = max(head, hop.free_at)
        head_out = queued_start + hop.fixed_ns
        serialise = int(size_bytes * hop.ns_per_byte)
        flit = int(min(size_bytes, flit_bytes) * hop.ns_per_byte)
        tail_out = max(head_out + serialise, tail + hop.fixed_ns + flit)
        hop.free_at = tail_out
        hop.messages += 1
        head = head_out
        tail = tail_out
    return tail


class Link:
    """A full-duplex Myrinet cable: one Hop per direction."""

    def __init__(self, params: MyrinetParams, name: str) -> None:
        self.name = name
        self.uplink = Hop(
            f"{name}.up", params.link_propagation_ns, params.link_ns_per_byte
        )
        self.downlink = Hop(
            f"{name}.down", params.link_propagation_ns, params.link_ns_per_byte
        )


class Switch:
    """A source-routed crossbar: per-output-port occupancy.

    Output-port contention is the only switch-level queueing in a real
    Myrinet crossbar (input links block upstream via back-pressure,
    which the hop chain models by construction).
    """

    def __init__(self, params: MyrinetParams, ports: int, name: str = "sw0") -> None:
        self.name = name
        self.params = params
        self.output_ports = [
            Hop(f"{name}.out{i}", params.switch_route_ns, params.link_ns_per_byte)
            for i in range(ports)
        ]


@dataclass
class FabricStats:
    messages: int = 0
    bytes: int = 0
    drops: int = 0
    per_pair: dict[tuple[int, int], int] = field(default_factory=dict)


class Fabric:
    """A single-switch Myrinet SAN connecting up to ``ports`` hosts.

    (Multi-switch topologies would add hop chains; the paper's testbed
    was two hosts on one switch, which this covers with room to grow.)
    """

    def __init__(
        self,
        sim: Simulator,
        params: MyrinetParams | None = None,
        ports: int = 16,
    ) -> None:
        self.sim = sim
        self.params = params if params is not None else MyrinetParams()
        self.switch = Switch(self.params, ports)
        self.stats = FabricStats()
        self._nics: dict[int, "GmNic"] = {}
        self._links: dict[int, Link] = {}
        self._dma_tx: dict[int, Hop] = {}
        self._dma_rx: dict[int, Hop] = {}
        self._ports = ports

    # -- topology ----------------------------------------------------------
    def attach(self, node: int, nic: "GmNic") -> None:
        if node in self._nics:
            raise FabricError(f"node {node} already attached")
        if len(self._nics) >= self._ports:
            raise FabricError(f"switch has only {self._ports} ports")
        p = self.params
        self._nics[node] = nic
        self._links[node] = Link(p, f"link{node}")
        self._dma_tx[node] = Hop(
            f"dma_tx{node}",
            p.pci_dma_setup_ns + p.mcp_process_ns,
            p.pci_dma_ns_per_byte,
        )
        self._dma_rx[node] = Hop(
            f"dma_rx{node}",
            p.pci_dma_setup_ns + p.mcp_process_ns,
            p.pci_dma_ns_per_byte,
        )

    def nodes(self) -> list[int]:
        return sorted(self._nics)

    # -- transmission --------------------------------------------------------
    def transmit(
        self,
        src: int,
        dst: int,
        size_bytes: int,
        deliver: Callable[[int], None],
    ) -> int:
        """Inject a message; ``deliver(arrival_ns)`` fires at the far end.

        Returns the computed arrival time (ns).  The path is
        tx-DMA → up-link → switch output port → down-link → rx-DMA,
        with cut-through pipelining across all five hops.
        """
        if src not in self._nics:
            raise FabricError(f"source node {src} not attached")
        if dst not in self._nics:
            raise FabricError(f"destination node {dst} not attached")
        if src == dst:
            raise FabricError("fabric loopback not supported; use a loopback PT")
        p = self.params
        wire_bytes = size_bytes + p.wire_header_bytes
        port_index = self.nodes().index(dst) % len(self.switch.output_ports)
        hops = [
            self._dma_tx[src],
            self._links[src].uplink,
            self.switch.output_ports[port_index],
            self._links[dst].downlink,
            self._dma_rx[dst],
        ]
        start = self.sim.now + p.host_send_overhead_ns
        arrival = _cut_through_delivery(hops, start, wire_bytes, p.flit_bytes)
        arrival += p.host_recv_overhead_ns
        self.stats.messages += 1
        self.stats.bytes += size_bytes
        key = (src, dst)
        self.stats.per_pair[key] = self.stats.per_pair.get(key, 0) + 1
        self.sim.at(arrival, lambda: deliver(arrival))
        return arrival

    def expected_one_way_ns(self, size_bytes: int) -> int:
        """Uncontended one-way latency: the cut-through recurrence run
        over a pristine copy of the hop chain (exact by construction;
        used by tests and to document the calibration)."""
        p = self.params
        wire = size_bytes + p.wire_header_bytes
        fresh = [
            Hop("dma_tx", p.pci_dma_setup_ns + p.mcp_process_ns, p.pci_dma_ns_per_byte),
            Hop("up", p.link_propagation_ns, p.link_ns_per_byte),
            Hop("sw", p.switch_route_ns, p.link_ns_per_byte),
            Hop("down", p.link_propagation_ns, p.link_ns_per_byte),
            Hop("dma_rx", p.pci_dma_setup_ns + p.mcp_process_ns, p.pci_dma_ns_per_byte),
        ]
        arrival = _cut_through_delivery(
            fresh, p.host_send_overhead_ns, wire, p.flit_bytes
        )
        return arrival + p.host_recv_overhead_ns
