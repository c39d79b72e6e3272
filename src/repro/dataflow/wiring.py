"""The one way to wire a cluster: routes derived from declarations.

``bootstrap``'s ``dataflow`` section is a call to :func:`wire_dataflow`
(on either plane, and again on ``Cluster.rejoin``); so is every rig
still assembled by hand.  There is no per-application ``connect()``
beside it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.config.schema import ParamSchema, ParamSpec
from repro.dataflow.graph import DataflowGraph, node_for_device
from repro.dataflow.registry import lookup
from repro.dataflow.routing import (
    DEFAULT_EDGE_CREDITS,
    CreditLedger,
    DataflowOutbox,
    Edge,
)
from repro.i2o.errors import I2OError
from repro.i2o.tid import Tid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config.bootstrap import Cluster
    from repro.core.executive import Executive

#: The bootstrap ``dataflow`` section (:func:`install_dataflow`): the
#: :func:`wire_dataflow` keywords a spec sets; the rest keep their
#: defaults.
DATAFLOW_SCHEMA = ParamSchema([
    ParamSpec("edge_credits", int, default=DEFAULT_EDGE_CREDITS, minimum=1,
              description="per-consumer queue capacity (frames) when the "
                          "device class declares no queue_capacity"),
    ParamSpec("backpressure", bool, default=True,
              description="wire per-edge credit windows (off = routes "
                          "only, uncapped)"),
])


def wire_dataflow(
    executives: "Mapping[int, Executive]",
    *,
    edge_credits: int = DEFAULT_EDGE_CREDITS,
    backpressure: bool = True,
) -> tuple[DataflowGraph, CreditLedger]:
    """Derive every route table of the cluster ``{node: executive}``.

    The graph is built from every installed device's
    ``consumes``/``emits``, analysed, and lowered to per-device
    :class:`~repro.dataflow.routing.TypeRoutes`: local consumers by
    TiD, remote ones by proxy.  A spec's ``dataflow`` section sets
    ``edge_credits`` and ``backpressure`` (:data:`DATAFLOW_SCHEMA`).
    With ``backpressure`` each edge gets a credit window of the
    consumer's ``queue_capacity`` (or ``edge_credits``) split across
    its fan-in for that type; without it the routes are uncapped.
    Either way every node gets the cluster's one
    :class:`~repro.dataflow.routing.CreditLedger` and a bounded
    :class:`~repro.dataflow.routing.DataflowOutbox` retried from its
    poll loop.  Any analysis diagnostic refuses the topology.

    Re-runnable: after a node was replaced (kill and rejoin), calling
    this again over the current executives re-derives every table —
    proxies are idempotent, a fresh executive joins the existing
    ledger, and replaced routes hand their credit edges back.
    """
    installed = {}
    placed = []
    for exe in executives.values():
        for device in exe.devices().values():
            dn = node_for_device(device.name, exe.node, device)
            if dn is not None:
                installed[dn.name] = (exe, device)
                placed.append(dn)
    # Name order, so fan-out emission order does not depend on how
    # the caller happened to install the devices.
    graph = DataflowGraph(sorted(placed, key=lambda dn: dn.name))
    diagnostics = graph.analyze()
    if diagnostics:
        rendered = "; ".join(d.render() for d in diagnostics)
        raise I2OError(
            f"dataflow analysis rejected the topology: {rendered}"
        )

    ledger = next(
        (exe.dataflow for exe in executives.values()
         if exe.dataflow is not None),
        None,
    ) or CreditLedger()
    for exe in sorted(executives.values(), key=lambda exe: exe.node):
        if exe.dataflow is ledger:
            continue  # re-run: this node is already on the ledger
        exe.attach(ledger)
        outbox = DataflowOutbox(exe, ledger)
        exe.dataflow_outbox = outbox
        exe._pollable.append(outbox)

    for name, dn in graph.devices.items():
        exe, device = installed[name]
        for tname in dn.emits:
            mtype = lookup(tname)
            targets: dict[Any, Tid] = {}
            edges: dict[Any, Edge] | None = {} if backpressure else None
            for consumer in graph.consumers_of(tname):
                c_exe, c_device = installed[consumer.name]
                c_tid = c_device.tid
                targets[consumer.key] = exe.routes.create_proxy(c_exe.node, c_tid)
                if edges is not None:
                    capacity = c_device.queue_capacity
                    if capacity is None:
                        capacity = edge_credits
                    # (register_edge floors the window at one credit)
                    edges[consumer.key] = ledger.register_edge(
                        mtype, consumer.key, name, exe.node,
                        consumer.name, c_exe.node, c_tid,
                        capacity // graph.fan_in(consumer.name, tname),
                    )
            replaced = device.routes_for(mtype)
            device.connect_route(mtype, targets, edges=edges, replace=True)
            if replaced is not None and replaced.edges:
                # After the new routes are live: forgetting an edge
                # wakes an emitter parked on it, to move by the new one.
                for edge in replaced.edges.values():
                    ledger.forget_edge(edge)
    for name in graph.devices:
        installed[name][1].on_dataflow_connected()
    return graph, ledger


def install_dataflow(
    cluster: "Cluster", options: dict[str, Any], nodes: list[int]
) -> None:
    """The bootstrap ``dataflow`` section: one :func:`wire_dataflow`
    over every installed device, including the ones the sections
    before it added (heartbeats, telemetry agents).  Routes are a
    property of the whole graph, so a rejoin of any of ``nodes``
    re-derives them all (the re-run is idempotent for the rest)."""
    cluster.dataflow_graph, cluster.dataflow_ledger = wire_dataflow(
        cluster.executives, **options
    )
