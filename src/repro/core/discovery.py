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

import logging
from typing import Any, Callable

from repro.core.device import decode_params
from repro.core.request import Requester
from repro.i2o.errors import I2OError
from repro.i2o.function_codes import EXEC_LCT_NOTIFY
from repro.i2o.tid import EXECUTIVE_TID, Tid

logger = logging.getLogger(__name__)

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
        #: nodes declared DEAD and excluded until readmitted
        self.quarantined: set[int] = set()
        #: pluggable replica choice; default picks the lowest (node, tid)
        self.select_replacement: ReplacementSelector = (
            lambda node, tid, cls, candidates:
            candidates[0] if candidates else None
        )
        self.rebinds = 0
        self.parks = 0

    def on_plugin(self) -> None:
        self.table.bind(EXEC_LCT_NOTIFY, self.handle_reply)

    # -- the wire protocol ---------------------------------------------------
    def refresh(self, node: int) -> dict[str, str]:
        """Fetch one node's logical configuration table."""
        proxy = self._require_live().create_proxy(node, EXECUTIVE_TID)
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
                    found[(node, remote_tid)] = exe.create_proxy(
                        node, remote_tid
                    )
        return found

    # -- failover -------------------------------------------------------------
    def candidates_for(self, device_class: str, *,
                       exclude: int) -> list[tuple[int, Tid]]:
        """Surviving instances of ``device_class`` from the cached LCTs.

        Only the cache is consulted — refreshing would mean messaging a
        cluster that just lost a node, and the dead node obviously
        cannot answer.  Local devices are excluded: a route must lead
        to a remote TiD.
        """
        exe = self._require_live()
        out: list[tuple[int, Tid]] = []
        for node, table in self.tables.items():
            if node == exclude or node == exe.node or node in self.quarantined:
                continue
            for tid_text, cls in table.items():
                if cls == device_class:
                    out.append((node, int(tid_text)))
        return sorted(out)

    def failover(self, node: int, *, policy: str = "rebind") -> dict[str, int]:
        """A peer died: re-bind or park every route leading to it.

        With ``policy="rebind"`` each affected proxy is pointed at a
        surviving replica of the same device class, chosen by the
        ``select_replacement`` hook (routes whose class has no replica
        are parked).  With ``policy="park"`` every route is parked:
        senders receive I2O failure replies — the paper's
        default-handler fault story — instead of silent stalls.
        """
        if policy not in ("rebind", "park"):
            raise DiscoveryError(f"unknown failover policy {policy!r}")
        exe = self._require_live()
        self.quarantined.add(node)
        dead_lct = self.tables.get(node, {})
        summary = {"rebound": 0, "parked": 0}
        for proxy_tid in exe.routes_to(node):
            route = exe.route_for(proxy_tid)
            replacement = None
            if policy == "rebind":
                cls = dead_lct.get(str(route.remote_tid))
                if cls is not None:
                    replacement = self.select_replacement(
                        node, route.remote_tid, cls,
                        self.candidates_for(cls, exclude=node),
                    )
            if replacement is not None:
                exe.rebind_route(
                    proxy_tid, replacement[0], replacement[1],
                    transport=route.transport,
                )
                summary["rebound"] += 1
                self.rebinds += 1
            else:
                exe.park_route(proxy_tid)
                summary["parked"] += 1
                self.parks += 1
        logger.info(
            "node %s: failover for dead node %s: %s", exe.node, node, summary
        )
        return summary

    def readmit(self, node: int) -> int:
        """A dead peer rejoined: lift the quarantine and un-park its
        routes (rebound routes stay rebound — the replicas own the
        state built up meanwhile).  Returns the unparked count."""
        exe = self._require_live()
        self.quarantined.discard(node)
        unparked = 0
        for proxy_tid in exe.routes_to(node, include_parked=True):
            route = exe.route_for(proxy_tid)
            if route is not None and route.parked:
                exe.unpark_route(proxy_tid)
                unparked += 1
        return unparked

    def export_counters(self) -> dict[str, object]:
        return {
            **super().export_counters(),
            "known_tables": len(self.tables),
            "quarantined": len(self.quarantined),
            "rebinds": self.rebinds,
            "parks": self.parks,
        }
