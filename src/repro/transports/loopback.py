"""In-process loopback transport.

Connects executives living in the same Python process with no wire at
all: the frame's *pool block* is handed to the destination endpoint
wholesale — the sender's loan travels with the staged item and
becomes the inbound frame's loan (the paper's buffer loaning, with
zero copies).  The receive side still runs the standard ingest
path, so it exercises exactly the same code (and record sites) as any real
transport.  Used heavily by tests and by the quickstart example; also
the lowest-latency option in the native plane.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.i2o.frame import Frame
from repro.transports.base import PeerTransport, StagedItem, TransportError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.routes import Route


class LoopbackNetwork:
    """The shared 'medium': a registry of loopback endpoints by node id."""

    def __init__(self) -> None:
        self._endpoints: dict[int, "LoopbackTransport"] = {}

    def join(self, node: int, transport: "LoopbackTransport") -> None:
        if node in self._endpoints:
            raise TransportError(f"node {node} already on loopback network")
        self._endpoints[node] = transport

    def leave(self, node: int, transport: "LoopbackTransport") -> None:
        """Remove ``node``'s endpoint if it is still ``transport``: a
        stale teardown never evicts a replacement that already joined."""
        if self._endpoints.get(node) is transport:
            del self._endpoints[node]

    def endpoint(self, node: int) -> "LoopbackTransport":
        ep = self._endpoints.get(node)
        if ep is None:
            raise TransportError(f"no loopback endpoint for node {node}")
        return ep


class LoopbackTransport(PeerTransport):
    """Zero-wire, zero-copy transport over a :class:`LoopbackNetwork`.

    Polling mode: delivery deposits the block-handoff item into the
    destination endpoint's staging deque and wakes the destination
    executive, whose next ``poll`` drains it — on its own thread when
    the executives are ``start()``ed (``append``/``popleft`` are atomic,
    so a sender on another thread needs no lock).
    """

    def __init__(self, network: LoopbackNetwork, name: str = "loopback") -> None:
        super().__init__(name=name, mode="polling")
        self.network = network
        self._staged: deque[StagedItem] = deque()

    def on_plugin(self) -> None:
        exe = self._require_live()
        self.network.join(exe.node, self)

    def transmit(self, frame: Frame, route: "Route") -> None:
        # Resolve before taking ownership of the frame, so failures
        # leave it with the caller; only a miss calls ``endpoint``,
        # for its named error.
        network = self.network
        dest = network._endpoints.get(route.node) or network.endpoint(route.node)
        dest._staged.append(self.make_handoff(frame))
        dest.notify_staged()

    def poll(self) -> bool:
        staged = self._staged
        if not staged or self.suspended:
            return False
        # What was staged when the poll began: a peer that keeps
        # sending from its own thread cannot hold this loop here.
        ingest, take = self.ingest_staged, staged.popleft
        for _ in range(len(staged)):
            ingest(take())
        return True

    def on_unplug(self) -> None:
        """Leave the network, so senders fail fast until a replacement
        joins, then release every staged block (they may belong to
        *other* nodes' pools — the OS analogue is reclaiming a dead
        process's mapped memory)."""
        exe = self.executive
        if exe is not None:
            self.network.leave(exe.node, self)
        while self._staged:
            self.release_staged(self._staged.popleft())
        super().on_unplug()

    @property
    def has_pending(self) -> bool:
        return bool(self._staged) and not self.suspended
