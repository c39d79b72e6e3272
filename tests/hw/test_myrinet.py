"""The Myrinet fabric model: latency law, contention, accounting."""

from __future__ import annotations

import pytest

from repro.hw.myrinet import Fabric, FabricError, Hop, MyrinetParams, _cut_through_delivery
from repro.sim.kernel import Simulator


class _StubNic:
    """Just enough of a NIC to attach and collect deliveries."""

    def __init__(self, fabric: Fabric, node: int) -> None:
        self.delivered: list[int] = []
        fabric.attach(node, self)  # type: ignore[arg-type]

    def deliver(self, packet) -> None:  # pragma: no cover - unused here
        pass


def make_fabric(**params):
    sim = Simulator()
    fabric = Fabric(sim, MyrinetParams(**params) if params else None)
    a, b = _StubNic(fabric, 0), _StubNic(fabric, 1)
    return sim, fabric


class TestTopology:
    def test_duplicate_attach_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim)
        _StubNic(fabric, 0)
        with pytest.raises(FabricError, match="already"):
            _StubNic(fabric, 0)

    def test_port_limit(self):
        fabric = Fabric(Simulator(), ports=2)
        _StubNic(fabric, 0)
        _StubNic(fabric, 1)
        with pytest.raises(FabricError, match="ports"):
            _StubNic(fabric, 2)

    def test_unknown_nodes_rejected(self):
        sim, fabric = make_fabric()
        with pytest.raises(FabricError):
            fabric.transmit(0, 9, 100, lambda t: None)
        with pytest.raises(FabricError):
            fabric.transmit(9, 0, 100, lambda t: None)

    def test_self_transmit_rejected(self):
        sim, fabric = make_fabric()
        with pytest.raises(FabricError, match="loopback"):
            fabric.transmit(0, 0, 100, lambda t: None)


class TestLatencyLaw:
    def test_delivery_at_expected_time(self):
        sim, fabric = make_fabric()
        arrivals = []
        fabric.transmit(0, 1, 1024, arrivals.append)
        sim.run()
        assert arrivals == [fabric.expected_one_way_ns(1024)]

    def test_latency_linear_in_size(self):
        """One-way latency must be alpha + beta*size: the property the
        whole figure 6 reproduction rests on."""
        sim, fabric = make_fabric()
        sizes = [256, 1024, 2048, 4096]
        lats = [fabric.expected_one_way_ns(s) for s in sizes]
        slopes = [
            (lats[i + 1] - lats[i]) / (sizes[i + 1] - sizes[i])
            for i in range(len(sizes) - 1)
        ]
        assert max(slopes) - min(slopes) < 1e-9  # identical increments

    def test_per_byte_cost_counted_once_not_per_hop(self):
        """Cut-through: the slope equals the bottleneck rate, not the
        sum of all five hop rates."""
        params = MyrinetParams()
        sim, fabric = make_fabric()
        slope = (
            fabric.expected_one_way_ns(4096) - fabric.expected_one_way_ns(2048)
        ) / 2048
        assert slope == pytest.approx(params.pci_dma_ns_per_byte, rel=0.01)
        total = 2 * params.pci_dma_ns_per_byte + 3 * params.link_ns_per_byte
        assert slope < total / 2  # decisively below store-and-forward

    def test_small_message_latency_near_gm_numbers(self):
        """GM 1.1.3 one-way small-message latency on the paper's host
        class was ~13-18 us (NIC+host path, before any framework)."""
        sim, fabric = make_fabric()
        lat_us = fabric.expected_one_way_ns(1) / 1000
        assert 12 <= lat_us <= 20


class TestContention:
    def test_sequential_messages_queue_on_the_path(self):
        sim, fabric = make_fabric()
        arrivals = []
        fabric.transmit(0, 1, 4096, arrivals.append)
        fabric.transmit(0, 1, 4096, arrivals.append)
        sim.run()
        uncontended = fabric.expected_one_way_ns(4096)
        assert arrivals[0] == uncontended
        assert arrivals[1] > uncontended  # had to wait for the pipe

    def test_distinct_destinations_share_source_dma(self):
        sim3 = Simulator()
        fabric = Fabric(sim3)
        _StubNic(fabric, 0)
        _StubNic(fabric, 1)
        _StubNic(fabric, 2)
        arrivals = {}
        fabric.transmit(0, 1, 4096, lambda t: arrivals.setdefault(1, t))
        fabric.transmit(0, 2, 4096, lambda t: arrivals.setdefault(2, t))
        sim3.run()
        # Second message serialises on node 0's tx DMA engine.
        assert arrivals[2] > arrivals[1]

    def test_stats_accumulate(self):
        sim, fabric = make_fabric()
        for _ in range(3):
            fabric.transmit(0, 1, 100, lambda t: None)
        sim.run()
        assert fabric.stats.messages == 3
        assert fabric.stats.bytes == 300
        assert fabric.stats.per_pair[(0, 1)] == 3


class TestCutThroughRecurrence:
    def test_single_hop_is_fixed_plus_serialisation(self):
        hop = Hop("h", fixed_ns=100, ns_per_byte=2.0)
        arrival = _cut_through_delivery([hop], 0, 50, flit_bytes=16)
        assert arrival == 100 + 100  # fixed + 50*2

    def test_bottleneck_dominates_chain(self):
        hops = [
            Hop("fast1", 0, 1.0),
            Hop("slow", 0, 10.0),
            Hop("fast2", 0, 1.0),
        ]
        arrival = _cut_through_delivery(hops, 0, 1000, flit_bytes=1)
        # ~1000*10 from the bottleneck, plus one flit on the others.
        assert 10_000 <= arrival <= 10_100

    def test_busy_hop_delays_next_message(self):
        hop = Hop("h", fixed_ns=0, ns_per_byte=1.0)
        first = _cut_through_delivery([hop], 0, 100, flit_bytes=16)
        second = _cut_through_delivery([hop], 0, 100, flit_bytes=16)
        assert first == 100
        assert second == 200
        assert hop.messages == 2
