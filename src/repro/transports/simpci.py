"""PCI-segment peer transport: host and IOP on one bus (paper §7).

Models the ongoing-work experiment of the paper: a host executive and
an IOP-board executive exchanging I2O frames across a PCI segment,
where the messaging-instance queues are either hardware FIFOs (the
PLX IOP 480 board's I2O support) or software-managed queues whose
management cost lands on the CPU.  Bench X3 measures the difference.

One :class:`SimPciTransport` is installed per endpoint (host side and
IOP side), sharing an :class:`~repro.hw.pci.IopBoard`; direction
determines which FIFO each endpoint posts to (figure 2: host posts to
the inbound queue, the IOP replies through the outbound queue).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.pci import HardwareFifo, IopBoard
from repro.i2o.frame import Frame
from repro.sim.kernel import Simulator
from repro.transports.base import PeerTransport, TransportError
from repro.transports.wire import decode_wire, encode_wire

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.routes import Route
    from repro.core.simnode import CostLedger


class SimPciTransport(PeerTransport):
    """One endpoint of a host↔IOP PCI message path."""

    def __init__(
        self,
        sim: Simulator,
        board: IopBoard,
        *,
        side: str,
        peer_node: int,
        name: str = "",
    ) -> None:
        if side not in ("host", "iop"):
            raise TransportError(f"side must be 'host' or 'iop', got {side!r}")
        super().__init__(name=name or f"pci-{side}", mode="polling")
        self.sim = sim
        self.board = board
        self.side = side
        self.peer_node = peer_node
        #: the SimNode's cost ledger (``attach_transport_hooks``)
        self.ledger: "CostLedger | None" = None

    # FIFO orientation: the host posts into board.inbound and fetches
    # from board.outbound; the IOP does the opposite (paper figure 2).
    @property
    def _tx_fifo(self) -> HardwareFifo:
        return self.board.inbound if self.side == "host" else self.board.outbound

    @property
    def _rx_fifo(self) -> HardwareFifo:
        return self.board.outbound if self.side == "host" else self.board.inbound

    # -- transmit ----------------------------------------------------------
    def transmit(self, frame: Frame, route: "Route") -> None:
        exe = self._require_live()
        if route.node != self.peer_node:
            raise TransportError(
                f"PCI PT reaches only node {self.peer_node}, not {route.node}"
            )
        data = encode_wire(exe.node, frame)
        self.tx_copies += 1  # staging copy DMA'd across the PCI segment
        self.account_sent(frame.total_size)
        exe.frame_free(frame)
        # Queue-management CPU cost: ~free with hardware FIFOs, real
        # with software queues — charge it to this node's ledger.
        offset = 0
        if self.ledger is not None:
            self.ledger.charge("fifo_post", self._tx_fifo.post_cost_ns())
            offset = self.ledger.accrued_ns
        fifo = self._tx_fifo

        def post() -> None:
            def dma_done(_t: int) -> None:
                if not fifo.post(data):
                    # Back-pressure: retry after one bus round.
                    self.sim.after(
                        self.board.bus.transfer_time_ns(64),
                        lambda: dma_done(_t),
                    )
                    return
                if self._peer_endpoint is not None:
                    self._peer_endpoint.notify_staged()

            self.board.bus.transfer(len(data), dma_done)

        self.sim.after(offset, post) if offset else post()

    _peer_endpoint: "SimPciTransport | None" = None

    @classmethod
    def pair(
        cls,
        sim: Simulator,
        board: IopBoard,
        *,
        host_node: int,
        iop_node: int,
    ) -> tuple["SimPciTransport", "SimPciTransport"]:
        """Create the two coupled endpoints of one PCI segment."""
        host = cls(sim, board, side="host", peer_node=iop_node)
        iop = cls(sim, board, side="iop", peer_node=host_node)
        host._peer_endpoint = iop
        iop._peer_endpoint = host
        return host, iop

    # -- receive -----------------------------------------------------------
    def poll(self) -> bool:
        self._require_live()
        got = False
        while True:
            item = self._rx_fifo.fetch()
            if item is None:
                break
            got = True
            if self.ledger is not None:
                self.ledger.charge("fifo_fetch", self._rx_fifo.fetch_cost_ns())
            src_node, frame_bytes = decode_wire(item)  # type: ignore[arg-type]
            self.ingest_frame_bytes(src_node, frame_bytes)
        return got
