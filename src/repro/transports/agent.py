"""The Peer Transport Agent (PTA).

Paper §4: *"The Peer Transport Agent receives messages and memory
pools are used for zero-copy operation"* and figure 4: outbound frames
travel Messenger Instance → PTA → PT → wire.  The PTA owns the
route-to-transport mapping; since every device instance can be
configured with a route, different destinations (or even different
device pairs) may use different transports concurrently — the paper's
multi-rail operation ("a vital functionality that is not covered by
other comparable middleware products yet").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.device import Listener
from repro.flightrec.records import EV_FRAME_TRANSMIT, pack3
from repro.i2o.frame import HEADER_SIZE, Frame
from repro.i2o.tid import PTA_TID
from repro.transports.base import PeerTransport, TransportError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executive import Executive
    from repro.core.routes import Route


class PeerTransportAgent(Listener):
    """Routes outbound frames to the peer transport serving each route."""

    device_class = "peer_transport_agent"

    def __init__(self, name: str = "pta") -> None:
        super().__init__(name)
        self._by_name: dict[str, PeerTransport] = {}
        self._by_node: dict[int, PeerTransport] = {}
        self._default: PeerTransport | None = None
        self.forwarded = 0

    # -- wiring ---------------------------------------------------------------
    @classmethod
    def attach(cls, executive: "Executive") -> "PeerTransportAgent":
        """Install a PTA at the well-known TiD 1 of ``executive``."""
        pta = cls()
        executive.install(pta, tid=PTA_TID)
        executive.pta = pta
        return pta

    def register(
        self,
        transport: PeerTransport,
        *,
        nodes: list[int] | None = None,
        default: bool = False,
    ) -> PeerTransport:
        """Install (if needed) and index a peer transport.

        ``nodes`` pins specific destination nodes to this transport;
        ``default`` makes it the fallback for unpinned nodes.
        """
        exe = self._require_live()
        if transport.executive is None:
            exe.install(transport)
        elif transport.executive is not exe:
            raise TransportError(
                f"transport {transport.name!r} belongs to another executive"
            )
        if transport.name in self._by_name:
            raise TransportError(f"duplicate transport name {transport.name!r}")
        self._by_name[transport.name] = transport
        for node in nodes or ():
            self._by_node[node] = transport
        if default or self._default is None:
            self._default = transport
        if transport.mode == "polling":
            exe._pollable.append(transport)
            exe.msgi.wake()  # data staged before this is polled now
        return transport

    def forget(self, transport: PeerTransport) -> None:
        """Undo :meth:`register` for an unplugged transport."""
        self._by_name = {n: p for n, p in self._by_name.items() if p is not transport}
        self._by_node = {n: p for n, p in self._by_node.items() if p is not transport}
        if self._default is transport:
            self._default = None
        exe = transport.executive
        if exe is not None and transport in exe._pollable:
            exe._pollable.remove(transport)

    def transport(self, name: str) -> PeerTransport:
        pt = self._by_name.get(name)
        if pt is None:
            raise TransportError(f"no transport named {name!r}")
        return pt

    def transports(self) -> list[PeerTransport]:
        return list(self._by_name.values())

    # -- forwarding -------------------------------------------------------------
    def resolve(self, route: "Route") -> PeerTransport:
        """Transport selection order: route pin → per-node map → default."""
        if route.transport is not None:
            pt = self._by_name.get(route.transport)
            if pt is None:
                raise TransportError(
                    f"route names unknown transport {route.transport!r}"
                )
            return pt
        pt = self._by_node.get(route.node) or self._default
        if pt is None:
            raise TransportError(f"no transport can reach node {route.node}")
        return pt

    def forward(self, frame: Frame, route: "Route") -> None:
        """Hand an outbound frame to its transport (figure 4, step 3).

        Rewrites ``target`` from the sender-local proxy TiD to the TiD
        that is real at the receiver — the wire never carries proxy
        identifiers, which is what makes proxies purely local objects.
        A failed send restores the original target before re-raising
        (so the dead-letter path logs and fails the *sender-local*
        address, not the receiver's) and does not count as forwarded.
        """
        # Once per hop: ``resolve``'s lookups, inlined in its order; only
        # a miss calls it, for its named error.
        name = route.transport
        pt = (self._by_node.get(route.node) or self._default if name is None
              else self._by_name.get(name)) or self.resolve(route)
        if pt.suspended:
            raise TransportError(
                f"transport {pt.name!r} is suspended; route to node "
                f"{route.node} is unavailable"
            )
        original_target = frame._target
        owned = frame.block is not None
        exe = self.executive
        fr = exe.flightrec if exe is not None else None
        if fr is not None:
            # Snapshot before transmit: afterwards the block may have
            # been detached to the wire and the frame is not ours to
            # read.
            rec_args = (
                frame._transaction_context,
                pack3(route.node, route.remote_tid, frame._xfunction),
                HEADER_SIZE + frame._payload_size,
            )
        frame.put_target(route.remote_tid)  # checked by the route table
        try:
            pt.transmit(frame, route)
        except Exception:
            # Restore only while the frame still owns its buffer: if
            # the transport detached the block before failing, the
            # memory may already be recycled and is not ours to write.
            if frame.block is not None or not owned:
                frame.target = original_target
            raise
        self.forwarded += 1
        if fr is not None:
            fr.record(EV_FRAME_TRANSMIT, *rec_args)
