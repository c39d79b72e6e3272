"""The PCI host<->IOP transport and the hardware-FIFO experiment arm."""

from __future__ import annotations

import pytest

from repro.bench.devices import EchoDevice, PingDevice
from repro.core.executive import Executive
from repro.core.probes import CostModel
from repro.core.simnode import SimNode
from repro.hw.pci import IopBoard, PciBus
from repro.sim.kernel import Simulator
from repro.transports.agent import PeerTransportAgent
from repro.transports.base import TransportError
from repro.transports.simpci import SimPciTransport

REMOTE_TID = 5
INITIATOR_TID = 0


def build(hardware: bool):
    sim = Simulator()
    board = IopBoard(sim, PciBus(sim), hardware_fifos=hardware)
    host_exe, iop_exe = Executive(node=0), Executive(node=1)
    host_node = SimNode(sim, host_exe, cost_model=CostModel.paper_table1())
    iop_node = SimNode(sim, iop_exe, cost_model=CostModel.paper_table1())
    host_pt, iop_pt = SimPciTransport.pair(sim, board, host_node=0, iop_node=1)
    PeerTransportAgent.attach(host_exe).register(host_pt, default=True)
    PeerTransportAgent.attach(iop_exe).register(iop_pt, default=True)
    host_node.attach_transport_hooks()
    iop_node.attach_transport_hooks()
    return sim, board, host_exe, iop_exe


def run_pingpong(hardware: bool, payload=256, rounds=20):
    sim, board, host_exe, iop_exe = build(hardware)
    echo_tid = iop_exe.install(EchoDevice())
    ping = PingDevice()
    host_exe.install(ping)
    ping.configure(host_exe.routes.create_proxy(1, echo_tid), payload, rounds)
    sim.at(0, ping.kick)
    sim.run()
    return ping, board


class TestTransport:
    def test_round_trip_completes(self):
        ping, board = run_pingpong(hardware=True)
        assert len(ping.rtts_ns) == 20
        assert board.inbound.posts == 20
        assert board.outbound.posts == 20

    def test_side_validation(self):
        sim = Simulator()
        board = IopBoard(sim, PciBus(sim))
        with pytest.raises(TransportError):
            SimPciTransport(sim, board, side="sideways", peer_node=1)

    def test_wrong_destination_rejected(self):
        sim, board, host_exe, _ = build(hardware=True)
        pt = host_exe.pta.transport("pci-host")
        frame = host_exe.frame_alloc(0, target=REMOTE_TID,
                                     initiator=INITIATOR_TID)
        from repro.core.routes import Route

        with pytest.raises(TransportError, match="reaches only"):
            pt.transmit(frame, Route(node=9, remote_tid=REMOTE_TID))
        host_exe.frame_free(frame)


class TestHardwareFifoClaim:
    def test_hardware_fifos_are_faster(self):
        """The §7 experiment: hardware queue support must beat
        software queue management."""
        hw, _ = run_pingpong(hardware=True)
        sw, _ = run_pingpong(hardware=False)
        assert hw.rtts_ns[-1] < sw.rtts_ns[-1]

    def test_saving_scales_with_queue_cost_difference(self):
        hw, board_hw = run_pingpong(hardware=True)
        sw, board_sw = run_pingpong(hardware=False)
        params = board_hw.bus.params
        per_hop_saving = (
            params.sw_queue_post_ns + params.sw_queue_fetch_ns
            - 2 * params.hw_fifo_post_ns
        )
        measured = (sw.rtts_ns[-1] - hw.rtts_ns[-1]) / 2  # per one-way
        # one post + one fetch saved per direction
        assert measured == pytest.approx(per_hop_saving, rel=0.25)
