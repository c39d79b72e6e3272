"""Experiment X3 — §7: hardware FIFO support on the IOP board.

The paper's ongoing work: *"The board gives I2O support through
hardware FIFOs, which will allow us to provide communication
efficiency measurements with and without hardware support."*  We run
that measurement on the modelled board: host↔IOP ping-pong over the
PCI segment, messaging queues implemented as hardware FIFOs versus
software-managed queues (whose per-message management cost lands on
the CPU ledger).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.devices import EchoDevice, PingDevice
from repro.bench.report import format_table
from repro.core.executive import Executive
from repro.core.probes import CostModel
from repro.core.simnode import SimNode
from repro.hw.pci import IopBoard, PciBus, PciParams
from repro.sim.kernel import Simulator
from repro.transports.agent import PeerTransportAgent
from repro.transports.simpci import SimPciTransport


@dataclass
class PciFifoResult:
    hw_one_way_us: float
    sw_one_way_us: float

    @property
    def saving_us(self) -> float:
        return self.sw_one_way_us - self.hw_one_way_us

    def report(self) -> str:
        return format_table(
            ["messaging queues", "one-way us (mean)"],
            [
                ("hardware FIFOs (IOP 480)", f"{self.hw_one_way_us:.2f}"),
                ("software-managed", f"{self.sw_one_way_us:.2f}"),
                ("hardware saving", f"{self.saving_us:.2f}"),
            ],
            title="X3: host<->IOP latency with and without I2O hardware "
            "FIFO support",
        )


def _run_arm(
    *, hardware: bool, payload: int, rounds: int, params: PciParams
) -> float:
    sim = Simulator()
    bus = PciBus(sim, params)
    board = IopBoard(sim, bus, hardware_fifos=hardware)
    host_exe, iop_exe = Executive(node=0), Executive(node=1)
    host_node = SimNode(sim, host_exe, cost_model=CostModel.paper_table1())
    iop_node = SimNode(sim, iop_exe, cost_model=CostModel.paper_table1())
    host_pt, iop_pt = SimPciTransport.pair(sim, board, host_node=0, iop_node=1)
    PeerTransportAgent.attach(host_exe).register(host_pt, default=True)
    PeerTransportAgent.attach(iop_exe).register(iop_pt, default=True)
    host_node.attach_transport_hooks()
    iop_node.attach_transport_hooks()
    echo_tid = iop_exe.install(EchoDevice())
    ping = PingDevice()
    host_exe.install(ping)
    ping.configure(host_exe.routes.create_proxy(1, echo_tid), payload, rounds)
    sim.at(0, ping.kick)
    sim.run()
    if len(ping.rtts_ns) != rounds:
        raise RuntimeError(
            f"PCI ping-pong stalled: {len(ping.rtts_ns)}/{rounds}"
        )
    return sum(ping.rtts_ns) / len(ping.rtts_ns) / 2.0 / 1000.0


def run_pcififo(
    payload: int = 512, rounds: int = 200, params: PciParams | None = None
) -> PciFifoResult:
    p = params or PciParams()
    return PciFifoResult(
        hw_one_way_us=_run_arm(hardware=True, payload=payload, rounds=rounds,
                               params=p),
        sw_one_way_us=_run_arm(hardware=False, payload=payload, rounds=rounds,
                               params=p),
    )
