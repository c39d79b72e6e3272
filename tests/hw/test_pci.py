"""PCI bus, hardware FIFOs, IOP board."""

from __future__ import annotations

import pytest

from repro.hw.pci import HardwareFifo, IopBoard, PciBus, PciError, PciParams
from repro.sim.kernel import Simulator


class TestPciBus:
    def test_ns_per_byte_from_clock_and_width(self):
        params = PciParams()
        # 33 MHz x 4 B = 132 MB/s peak -> ~7.58 ns/B
        assert params.ns_per_byte == pytest.approx(7.575, rel=0.01)

    def test_transfer_time_includes_burst_arbitration(self):
        bus = PciBus(Simulator())
        p = bus.params
        one_burst = bus.transfer_time_ns(p.burst_size)
        two_bursts = bus.transfer_time_ns(p.burst_size + 1)
        assert two_bursts - one_burst >= p.arbitration_ns

    def test_transfers_serialise(self):
        sim = Simulator()
        bus = PciBus(sim)
        done = []
        bus.transfer(4096, done.append)
        bus.transfer(4096, done.append)
        sim.run()
        assert done[1] - done[0] == done[0]  # equal back-to-back spans
        assert bus.transfers == 2
        assert bus.bytes_moved == 8192

    def test_negative_size_rejected(self):
        with pytest.raises(PciError):
            PciBus(Simulator()).transfer(-1, lambda t: None)


class TestHardwareFifo:
    def test_post_fetch_fifo_order(self):
        fifo = HardwareFifo(PciParams(), hardware=True, depth=4)
        for i in range(3):
            assert fifo.post(i)
        assert [fifo.fetch() for _ in range(3)] == [0, 1, 2]
        assert fifo.fetch() is None

    def test_full_fifo_backpressures(self):
        fifo = HardwareFifo(PciParams(), hardware=True, depth=2)
        assert fifo.post("a") and fifo.post("b")
        assert not fifo.post("c")
        assert fifo.full_rejects == 1
        fifo.fetch()
        assert fifo.post("c")

    def test_hardware_costs_less_than_software(self):
        params = PciParams()
        hw = HardwareFifo(params, hardware=True)
        sw = HardwareFifo(params, hardware=False)
        assert hw.post_cost_ns() < sw.post_cost_ns()
        assert hw.fetch_cost_ns() < sw.fetch_cost_ns()

    def test_depth_validation(self):
        with pytest.raises(PciError):
            HardwareFifo(PciParams(), hardware=True, depth=0)


class TestIopBoard:
    def test_board_has_inbound_outbound_pair(self):
        sim = Simulator()
        board = IopBoard(sim, PciBus(sim), hardware_fifos=True)
        assert board.inbound.hardware and board.outbound.hardware
        assert board.inbound is not board.outbound
