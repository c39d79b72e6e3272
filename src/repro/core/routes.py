"""Proxy TiDs and the routes behind them (paper §3.4: "the executive
creates a local TiD for the target device along with information how
to reach this device ... compared to the Proxy pattern").

Every executive has one :class:`RouteTable` (``exe.routes``), the only
writer of routes, failover included; its loop of control reads
:attr:`RouteTable.by_proxy`, one dict lookup per routed frame.
"""

from __future__ import annotations

import logging
import threading
from collections.abc import Callable, Collection
from dataclasses import dataclass, replace

from repro.i2o.errors import AddressingError
from repro.i2o.tid import Tid, TidAllocator, check_node, check_tid

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Route:
    """Where a proxy TiD leads: a device on another node.

    ``transport`` optionally pins the route to a named peer transport
    (paper §4: "As it is possible to configure each device instance
    with a route, we can use multiple transports to send and receive in
    parallel"); ``None`` lets the PTA pick its default for the node.

    A ``parked`` route belongs to a peer declared DEAD by the
    supervision layer and no replica could take it over: frames sent
    to it are dead-lettered, so the initiator receives the standard
    I2O failure reply instead of waiting forever.
    """

    node: int
    remote_tid: Tid
    transport: str | None = None
    parked: bool = False


#: :meth:`RouteTable.fail_node`'s replica choice: the dead route in,
#: a surviving ``(node, tid)`` out, or None to park the route
ReplicaPick = Callable[[Route], "tuple[int, Tid] | None"]


class RouteTable:
    """One node's proxies: TiD → :class:`Route`, allocated from the
    executive's TiD space."""

    def __init__(self, node: int, tids: TidAllocator) -> None:
        self.node = node
        self.tids = tids
        #: proxy TiD -> route.  The executive's loop reads this very
        #: dict object, so it is mutated in place, never replaced.
        self.by_proxy: dict[Tid, Route] = {}
        self._proxies: dict[tuple[int, Tid, str | None], Tid] = {}
        #: Serialises route writes and snapshots: task-mode transports
        #: call ``create_proxy`` from their receive threads while the
        #: loop of control rebinds, parks and lists routes.
        self._route_lock = threading.Lock()
        self.rebinds = 0
        self.parks = 0

    def create_proxy(
        self, node: int, remote_tid: Tid, transport: str | None = None
    ) -> Tid:
        """Allocate a local TiD standing in for a device on ``node``.

        Idempotent per ``(node, remote_tid, transport)``.  A proxy for
        a local device is the device's own TiD.
        """
        key = (node, remote_tid, transport)
        # Every ingested frame asks; after the first the answer is one
        # dict read (atomic under the GIL), and an entry is only ever
        # inserted below, after both ids were checked.
        existing = self._proxies.get(key)
        if existing is not None:
            return existing
        check_tid(remote_tid)
        if check_node(node) == self.node:
            return remote_tid
        with self._route_lock:
            existing = self._proxies.get(key)
            if existing is not None:
                return existing
            tid = self.tids.allocate()
            self.by_proxy[tid] = Route(node, remote_tid, transport)
            self._proxies[key] = tid
            return tid

    def route_for(self, tid: Tid) -> Route | None:
        return self.by_proxy.get(tid)

    def routes_to(self, node: int, *, include_parked: bool = False) -> list[Tid]:
        """Proxy TiDs whose route currently leads to ``node``."""
        with self._route_lock:
            routes = list(self.by_proxy.items())
        return sorted(
            tid for tid, route in routes
            if route.node == node and (include_parked or not route.parked)
        )

    def _existing(self, proxy_tid: Tid) -> Route:
        route = self.by_proxy.get(proxy_tid)
        if route is None:
            raise AddressingError(f"TiD {proxy_tid} is not a proxy")
        return route

    def rebind_route(
        self,
        proxy_tid: Tid,
        node: int,
        remote_tid: Tid,
        transport: str | None = None,
    ) -> None:
        """Point an existing proxy at a different remote device.

        This is the failover primitive: every frame already addressed
        to ``proxy_tid`` — pending replies included — now reaches the
        replacement device, without any sender learning a new TiD.
        """
        old = self._existing(proxy_tid)
        check_tid(remote_tid)
        if check_node(node) == self.node:
            raise AddressingError("cannot rebind a route to the local node")
        old_key = (old.node, old.remote_tid, old.transport)
        with self._route_lock:
            # The old key may already name another proxy (this one was
            # rebound onto it earlier): only this proxy's entry goes.
            if self._proxies.get(old_key) == proxy_tid:
                del self._proxies[old_key]
            self.by_proxy[proxy_tid] = Route(node, remote_tid, transport)
            # Keep proxy idempotency pointing at the earliest binding.
            self._proxies.setdefault((node, remote_tid, transport), proxy_tid)
        self.rebinds += 1
        logger.info(
            "node %s: rebound proxy %d: %s:%d -> %s:%d",
            self.node, proxy_tid, old.node, old.remote_tid, node, remote_tid,
        )

    def park_route(self, proxy_tid: Tid) -> None:
        """Mark a proxy's route unusable; senders get failure replies."""
        old = self._existing(proxy_tid)
        if not old.parked:
            with self._route_lock:
                self.by_proxy[proxy_tid] = replace(old, parked=True)
            self.parks += 1

    def unpark_route(self, proxy_tid: Tid) -> None:
        """Restore a parked route (the peer rejoined)."""
        old = self._existing(proxy_tid)
        if old.parked:
            with self._route_lock:
                self.by_proxy[proxy_tid] = replace(old, parked=False)

    # -- failover ------------------------------------------------------------
    def fail_node(
        self,
        node: int,
        pick: ReplicaPick | None = None,
        spare: Collection[Tid] = (),
    ) -> None:
        """The peer ``node`` died: rebind each live route to it onto
        ``pick(route)``, or park it when there is no pick or no replica,
        so senders get the I2O failure reply instead of silence.

        Proxies in ``spare`` keep their route: a heartbeat's beat proxy
        must go on probing the dead peer, or a healed partition stays
        mutually DEAD (both sides would drop their beats at a parked
        route).
        """
        for proxy_tid in self.routes_to(node):
            if proxy_tid in spare:
                continue
            route = self.by_proxy[proxy_tid]
            replica = pick(route) if pick is not None else None
            if replica is None:
                self.park_route(proxy_tid)
            else:
                self.rebind_route(proxy_tid, *replica, transport=route.transport)

    def readmit(self, node: int) -> None:
        """The peer ``node`` rejoined: unpark its routes.  Rebound
        routes stay rebound — the replicas own the state built up
        meanwhile."""
        for proxy_tid in self.routes_to(node, include_parked=True):
            self.unpark_route(proxy_tid)
