"""A GM 1.1.3-style message-passing layer over the Myrinet fabric model.

Myricom's GM (paper ref. [31], "similar to Active Messages") exposes a
token-regulated, OS-bypass API: a process opens a *port*, provides
*receive buffers* (receive tokens) and sends with
``gm_send_with_callback`` (consuming a send token that the completion
callback returns).  The paper's raw-GM baseline in figure 6 is this
API used directly; the XDAQ Myrinet peer transport
(:mod:`repro.transports.simgm`) is built on it, exactly like the
paper's "peer transport based on the Myrinet GM 1.1.3 library".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.hw.myrinet import Fabric
from repro.i2o.errors import I2OError

#: GM 1.1.3 default token counts per port.
DEFAULT_SEND_TOKENS = 16
DEFAULT_RECV_TOKENS = 16


class GmError(I2OError):
    """GM API misuse (no tokens, port closed, unknown node...)."""


@dataclass
class GmPacket:
    """What arrives at a port: sender node and the payload bytes."""

    src_node: int
    data: bytes

    @property
    def size(self) -> int:
        return len(self.data)


ReceiveHandler = Callable[[GmPacket], None]
SendCallback = Callable[[], None]


class GmNic:
    """The NIC-resident half: couples a port to the fabric."""

    def __init__(self, fabric: Fabric, node: int) -> None:
        self.fabric = fabric
        self.node = node
        self.port: "GmPort | None" = None
        fabric.attach(node, self)

    def deliver(self, packet: GmPacket) -> None:
        if self.port is None:
            self.fabric.stats.drops += 1
            return
        self.port._on_wire_arrival(packet)


class GmPort:
    """A user-level GM port: tokens, sends, receive dispatch.

    Semantics reproduced from GM:

    * sending without a free send token raises (GM returns
      ``GM_SEND_ERROR``; XDAQ's PT must therefore pace itself);
    * a message arriving when no receive buffer is provided is held in
      the NIC (bounded) — GM's flow control guarantees delivery once
      tokens return, and models the LANai SRAM staging buffer;
    * the receive handler runs at message-arrival virtual time (the
      polling/interrupt distinction lives in the peer transport above).
    """

    def __init__(
        self,
        fabric: Fabric,
        node: int,
        *,
        send_tokens: int = DEFAULT_SEND_TOKENS,
        recv_tokens: int = DEFAULT_RECV_TOKENS,
        nic_backlog: int = 64,
    ) -> None:
        self.nic = GmNic(fabric, node)
        self.nic.port = self
        self.fabric = fabric
        self.node = node
        self.send_tokens = send_tokens
        self.max_send_tokens = send_tokens
        self._recv_buffers = recv_tokens
        self._nic_backlog: deque[GmPacket] = deque()
        self.nic_backlog_limit = nic_backlog
        self._handler: ReceiveHandler | None = None
        self._pending: deque[GmPacket] = deque()  # awaiting a poll
        self.sent = 0
        self.received = 0
        self.dropped = 0

    # -- GM API -------------------------------------------------------------
    def set_receive_handler(self, handler: ReceiveHandler) -> None:
        self._handler = handler

    def provide_receive_buffer(self, count: int = 1) -> None:
        """Return ``count`` receive tokens (gm_provide_receive_buffer)."""
        if count < 1:
            raise GmError(f"count must be >= 1, got {count}")
        self._recv_buffers += count
        # Drain NIC-staged messages now that buffers exist.
        while self._nic_backlog and self._recv_buffers > 0:
            self._accept(self._nic_backlog.popleft())

    def send_with_callback(
        self,
        data: bytes | bytearray | memoryview,
        target_node: int,
        on_sent: SendCallback | None = None,
    ) -> int:
        """gm_send_with_callback: inject and get the token back via
        callback at DMA-completion (wire-injection) time.  Returns the
        scheduled arrival time at the destination (ns)."""
        if self.send_tokens <= 0:
            raise GmError(f"node {self.node}: out of send tokens")
        self.send_tokens -= 1
        payload = bytes(data)

        dst_nic = self.fabric._nics.get(target_node)
        if dst_nic is None:
            self.send_tokens += 1
            raise GmError(f"no GM port on node {target_node}")

        packet = GmPacket(src_node=self.node, data=payload)

        def deliver(_arrival_ns: int) -> None:
            dst_nic.deliver(packet)

        arrival = self.fabric.transmit(self.node, target_node, len(payload), deliver)
        self.sent += 1

        def return_token() -> None:
            self.send_tokens += 1
            if on_sent is not None:
                on_sent()

        # The send token returns once the host-side DMA has drained the
        # buffer — well before remote arrival; approximate with the
        # host send overhead + DMA serialisation.
        p = self.fabric.params
        done = p.host_send_overhead_ns + p.pci_dma_setup_ns + int(
            len(payload) * p.pci_dma_ns_per_byte
        )
        self.fabric.sim.after(done, return_token)
        return arrival

    # -- receive path ---------------------------------------------------------
    def _on_wire_arrival(self, packet: GmPacket) -> None:
        if self._recv_buffers <= 0:
            if len(self._nic_backlog) >= self.nic_backlog_limit:
                # NIC SRAM overflow — with correct token accounting this
                # never happens; counted, not raised, like real hardware.
                self.dropped += 1
                self.fabric.stats.drops += 1
                return
            self._nic_backlog.append(packet)
            return
        self._accept(packet)

    def _accept(self, packet: GmPacket) -> None:
        self._recv_buffers -= 1
        self.received += 1
        if self._handler is not None:
            self._handler(packet)
        else:
            self._pending.append(packet)

    def poll(self) -> GmPacket | None:
        """Handler-less receive (gm_receive): pop one pending packet."""
        return self._pending.popleft() if self._pending else None

    @property
    def pending(self) -> int:
        return len(self._pending)
