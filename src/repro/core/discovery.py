"""Peer discovery: from device-class names to proxy TiDs.

Paper §4, on what a freshly plugged-in class does: *"It will also
request the availability of other device class instances on remote
IOPs and triggers the creation of proxy TiDs."*

:class:`DiscoveryService` implements that request with nothing but
standard messages: it sends ``EXEC_LCT_NOTIFY`` to each known node's
executive (TiD 0), parses the logical configuration table from the
reply, and creates local proxies for every instance of the wanted
device class.  No name server, no extra protocol — the executives'
mandatory message set *is* the discovery protocol.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.device import decode_params
from repro.core.request import Requester
from repro.core.routes import Route
from repro.i2o.errors import I2OError
from repro.i2o.function_codes import EXEC_LCT_NOTIFY
from repro.i2o.tid import EXECUTIVE_TID, Tid

#: ``select_replacement`` hook: (dead_node, dead_tid, device_class,
#: candidates) -> (node, tid) or None.  Candidates are the surviving
#: same-class instances known from the cached LCTs, sorted.
ReplacementSelector = Callable[
    [int, Tid, str, list[tuple[int, Tid]]], "tuple[int, Tid] | None"
]


class DiscoveryError(I2OError):
    """A node did not answer or discovery found nothing."""


class DiscoveryService(Requester):
    """Resolves device-class names to proxies across the cluster.

    ``nodes`` is the set of reachable node ids (the cluster membership
    a configuration system provides).  An LCT request is one
    synchronous :meth:`~repro.core.request.Requester.ask`; a failure
    reply or a timeout raises :class:`DiscoveryError` (DESIGN §5,
    "Request/reply correlation").
    """

    device_class = "discovery"
    error_type = DiscoveryError

    def __init__(
        self,
        name: str = "discovery",
        *,
        nodes: list[int] | None = None,
        **requester: Any,
    ) -> None:
        super().__init__(name, **requester)
        self.nodes: list[int] = list(nodes or [])
        #: cache: node -> last seen LCT (tid string -> device class)
        self.tables: dict[int, dict[str, str]] = {}
        #: nodes declared DEAD and excluded until readmitted (the
        #: HeartbeatService that asks this service for replicas keeps it)
        self.quarantined: set[int] = set()
        #: pluggable replica choice; default picks the lowest (node, tid)
        self.select_replacement: ReplacementSelector = (
            lambda node, tid, cls, candidates:
            candidates[0] if candidates else None
        )
        #: replicas chosen for dead routes
        self.rebinds = 0

    def on_plugin(self) -> None:
        self.table.bind(EXEC_LCT_NOTIFY, self.handle_reply)

    # -- the wire protocol ---------------------------------------------------
    def refresh(self, node: int) -> dict[str, str]:
        """Fetch one node's logical configuration table."""
        proxy = self._require_live().routes.create_proxy(node, EXECUTIVE_TID)
        failed, data = self.ask(proxy, function=EXEC_LCT_NOTIFY, priority=1)
        if failed:
            raise DiscoveryError(
                f"node {node} did not answer LCT request (failure reply)"
            )
        table = self.tables[node] = decode_params(data)
        return table

    # -- resolution -----------------------------------------------------------
    def find_all(self, device_class: str, *, refresh: bool = True) -> dict[
        tuple[int, Tid], Tid
    ]:
        """All instances of ``device_class`` cluster-wide.

        Returns ``{(node, remote_tid): local_proxy_tid}``, including
        local instances (whose 'proxy' is the real TiD).
        """
        exe = self._require_live()
        found: dict[tuple[int, Tid], Tid] = {}
        # Local devices first.
        for tid, dev in exe.devices().items():
            if dev.device_class == device_class:
                found[(exe.node, tid)] = tid
        for node in self.nodes:
            if node == exe.node or node in self.quarantined:
                continue
            table = self.refresh(node) if refresh else self.tables.get(node, {})
            for tid_text, cls in table.items():
                if cls == device_class:
                    remote_tid = int(tid_text)
                    found[(node, remote_tid)] = exe.routes.create_proxy(
                        node, remote_tid
                    )
        return found

    # -- failover -------------------------------------------------------------
    def replica_for(self, route: Route) -> tuple[int, Tid] | None:
        """:meth:`RouteTable.fail_node <repro.core.routes.RouteTable.fail_node>`'s
        pick: a surviving instance of the class the dead route led to,
        chosen by ``select_replacement``, or None to park.

        Only the cached LCTs are consulted — refreshing would mean
        messaging a cluster that just lost a node.  Local devices are
        no candidates: a route must lead to a remote TiD.
        """
        cls = self.tables.get(route.node, {}).get(str(route.remote_tid))
        if cls is None:
            return None
        skip = {route.node, self._require_live().node, *self.quarantined}
        candidates = sorted(
            (node, int(tid_text))
            for node, table in self.tables.items() if node not in skip
            for tid_text, other in table.items() if other == cls
        )
        replica = self.select_replacement(
            route.node, route.remote_tid, cls, candidates)
        if replica is not None:
            self.rebinds += 1
        return replica

    def export_counters(self) -> dict[str, object]:
        return {
            **super().export_counters(),
            "known_tables": len(self.tables),
            "quarantined": len(self.quarantined),
            "rebinds": self.rebinds,
        }
