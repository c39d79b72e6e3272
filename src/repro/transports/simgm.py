"""The Myrinet/GM peer transport (simulation plane).

Paper §5: *"We implemented a peer transport based on the Myrinet GM
1.1.3 library for our XDAQ I2O executive and performed the round-trip
test."*  This is that PT, running over the modelled fabric of
:mod:`repro.hw`.

Timing semantics in the simulation plane:

* **transmit** — the frame is serialised immediately (so its block can
  be recycled), but wire injection is scheduled after the CPU cost the
  framework has accrued since the node last yielded (the node's
  ``ledger.accrued_ns``): software overhead delays the wire, which is
  precisely what figure 6 measures.  The sent frame's block is
  released at DMA completion, off the critical path, mirroring GM's
  send-callback buffer ownership: a ``frame-release`` fact for the
  ring, no CPU charge.
* **receive** — the GM receive handler stages the packet and wakes the
  node; the executive's next polling quantum runs ``ingest_frame_bytes``
  (where ``pt_processing`` is charged) at properly accounted CPU cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.flightrec.records import EV_FRAME_RELEASE
from repro.hw.gm import GmPacket, GmPort
from repro.hw.myrinet import Fabric
from repro.i2o.frame import Frame
from repro.transports.base import PeerTransport
from repro.transports.wire import decode_wire, encode_wire

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.routes import Route
    from repro.core.simnode import CostLedger


class SimGmTransport(PeerTransport):
    """XDAQ peer transport over the GM port abstraction."""

    def __init__(
        self,
        fabric: Fabric,
        name: str = "gm",
        *,
        send_tokens: int = 16,
        recv_tokens: int = 64,
    ) -> None:
        super().__init__(name=name, mode="polling")
        self.fabric = fabric
        self._send_tokens = send_tokens
        self._recv_tokens = recv_tokens
        self.port: GmPort | None = None
        #: (src_node, frame view into the packet's payload) — copied
        #: into pool memory by ``ingest_frame_bytes`` at poll time
        self._staged: list[tuple[int, memoryview]] = []
        #: frames awaiting a free send token (GM back-pressure):
        #: (wire bytes, destination node, pool block)
        self._tx_backlog: list[tuple[bytes, int, object]] = []
        #: the SimNode's cost ledger (``attach_transport_hooks``)
        self.ledger: "CostLedger | None" = None

    def on_plugin(self) -> None:
        exe = self._require_live()
        self.port = GmPort(
            self.fabric,
            exe.node,
            send_tokens=self._send_tokens,
            recv_tokens=self._recv_tokens,
        )
        self.port.set_receive_handler(self._on_packet)

    # -- transmit -----------------------------------------------------------
    def transmit(self, frame: Frame, route: "Route") -> None:
        exe = self._require_live()
        assert self.port is not None, "transport not plugged in"
        data = encode_wire(exe.node, frame)
        self.tx_copies += 1  # host-side staging copy into the DMA region
        self.account_sent(frame.total_size)
        block = frame.block
        frame.block = None  # ownership moves to the send completion
        offset = self.ledger.accrued_ns if self.ledger is not None else 0
        if offset:
            self.fabric.sim.after(
                offset, lambda: self._inject(data, route.node, block)
            )
        else:
            self._inject(data, route.node, block)

    def _inject(self, data: bytes, node: int, block: object) -> None:
        """Send now, or park behind GM's send-token back-pressure."""
        assert self.port is not None
        if self.port.send_tokens <= 0:
            self._tx_backlog.append((data, node, block))
            return
        exe = self._require_live()

        def on_sent() -> None:
            # GM send callback: the DMA drained the host buffer.
            if block is not None:
                exe.pool.free(block)  # type: ignore[arg-type]
                if exe.flightrec is not None:
                    exe.flightrec.record(EV_FRAME_RELEASE)
            self._drain_backlog()

        self.port.send_with_callback(data, node, on_sent)

    def _drain_backlog(self) -> None:
        assert self.port is not None
        while self._tx_backlog and self.port.send_tokens > 0:
            data, node, block = self._tx_backlog.pop(0)
            self._inject(data, node, block)

    # -- receive ------------------------------------------------------------
    def _on_packet(self, packet: GmPacket) -> None:
        src_node, frame_bytes = decode_wire(packet.data)
        self._staged.append((src_node, frame_bytes))
        self.notify_staged()

    def poll(self) -> bool:
        if not self._staged or self.suspended:
            return False
        staged, self._staged = self._staged, []
        for src_node, frame_bytes in staged:
            self.ingest_frame_bytes(src_node, frame_bytes)
            assert self.port is not None
            self.port.provide_receive_buffer()
        return True

    @property
    def has_pending(self) -> bool:
        return bool(self._staged)
