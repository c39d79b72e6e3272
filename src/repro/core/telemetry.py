"""Cluster telemetry over the standard utility message scheme.

Paper §2 claims system management needs no side channel: every
component is observable "according to one common scheme" — the
standard executive/utility messages.  This module holds that line for
whole-cluster observability:

* :class:`TelemetryAgent` — one per node; exports the node's
  :class:`~repro.core.metrics.MetricsRegistry` snapshot and the hops
  projected from its flight-recorder ring
  (:func:`~repro.flightrec.timeline.project_hops`) as an ordinary
  ``UtilParamsGet`` parameter map.  It adds no private verbs.
* :class:`TelemetryCollector` — installed on one node; sweeps every
  agent through proxies with ``UtilParamsGet`` (exactly like
  :class:`~repro.daq.monitor.DaqMonitor`), aggregates per-node metric
  snapshots and cluster totals, stitches cross-node hops into
  end-to-end trace timelines, and renders Prometheus-text and JSON
  dumps.
* :class:`PeriodicSweeper` — a mixin turning any device with a
  ``sweep()`` method into a self-clocked one via the I2O timer
  facility (expirations arrive as frames through the ordinary queues,
  paper §3.2).  Shared by the collector and ``DaqMonitor``.

The collector's only view of a remote node is the byte payload of a
``UtilParamsGet`` reply: no private function codes, no cross-node
Python object access — the acceptance criterion of the observability
tentpole.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import re
from typing import TYPE_CHECKING, Any

from repro.config.schema import ParamSchema, ParamSpec
from repro.core.device import Listener, decode_params, encode_params
from repro.core.request import Requester
from repro.dataflow.registry import message_type
from repro.flightrec.timeline import Hop, hop_order, project_hops
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.function_codes import UTIL_PARAMS_GET
from repro.i2o.tid import Tid
from repro.core.metrics import DISPATCH_LATENCY_BUCKETS_NS, prometheus_lines

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config.bootstrap import Cluster

#: The sweep is an ordinary ``UtilParamsGet`` (no private verb); the
#: declared type exists so the collector->agent edges show up in the
#: dataflow DAG.
MT_PARAMS_SWEEP = message_type(
    "telemetry.params-sweep", 0, function=UTIL_PARAMS_GET, mode="fanout"
)

#: Timer context the sweeper arms its periodic timer with.  Small and
#: untagged, so it is never mistaken for a trace id.
SWEEP_CONTEXT = 0x5EE9

#: Agent parameter keys carrying encoded hops: ``s<dispatch-record seq>``.
_HOP_KEY = re.compile(r"^s\d+$")

_HOP_FIELDS = len(dataclasses.fields(Hop))

#: Newest hops one ``UtilParamsGet`` reply carries: keeps the reply
#: inside one frame however large the node's ring is.  The ring keeps
#: the rest for ``python -m repro.diag where`` and post-mortems.
MAX_EXPORT_HOPS = 1024


def encode_hop(hop: Hop) -> str:
    """One hop as a compact ``;``-joined hex record (params-safe)."""
    return ";".join(format(v, "x") for v in dataclasses.astuple(hop))


def decode_hop(text: str) -> Hop:
    parts = text.split(";")
    if len(parts) != _HOP_FIELDS:
        raise I2OError(f"malformed hop record {text!r}")
    return Hop(*(int(part, 16) for part in parts))


class PeriodicSweeper:
    """Mixin: drive ``self.sweep()`` from a periodic I2O timer.

    The interval comes from the device parameter named by
    ``sweep_param`` (nanoseconds; 0 or unset keeps the device
    manual-only, the pre-PR behaviour).  The timer is armed on enable
    and disarmed on quiesce, so a paused device stops generating
    monitoring traffic.
    """

    sweep_param = "sweep_interval_ns"
    _sweep_timer_id: int | None = None

    def sweep(self) -> int:  # pragma: no cover - satisfied by the host class
        raise NotImplementedError

    def sweep_interval_ns(self) -> int:
        raw = self.parameters.get(self.sweep_param, "0")  # type: ignore[attr-defined]
        try:
            return int(raw or "0")
        except ValueError:
            raise I2OError(f"bad {self.sweep_param} value {raw!r}")

    def on_enable(self) -> None:
        super().on_enable()  # type: ignore[misc]
        interval = self.sweep_interval_ns()
        if interval > 0 and self._sweep_timer_id is None:
            self._sweep_timer_id = self.start_timer(  # type: ignore[attr-defined]
                interval, context=SWEEP_CONTEXT, period_ns=interval
            )

    def on_quiesce(self) -> None:
        super().on_quiesce()  # type: ignore[misc]
        if self._sweep_timer_id is not None:
            self.cancel_timer(self._sweep_timer_id)  # type: ignore[attr-defined]
            self._sweep_timer_id = None

    def on_timer(self, context: int, frame: Frame) -> None:
        if context == SWEEP_CONTEXT:
            self.sweep()
        else:
            super().on_timer(context, frame)  # type: ignore[misc]


class TelemetryAgent(Listener):
    """Per-node exporter of metrics and trace hops.

    Answers ``UtilParamsGet`` with a *fresh* map on every request
    (overriding the accumulate-into-``parameters`` default: hop keys
    churn every sweep and must not pile up as stale parameters).
    """

    device_class = "telemetry_agent"
    consumes = (MT_PARAMS_SWEEP,)

    def __init__(self, name: str = "telemetry-agent") -> None:
        super().__init__(name)
        self.exports = 0

    def local_snapshot(self) -> dict[str, str]:
        exe = self._require_live()
        out = {
            key: _fmt_number(value)
            for key, value in exe.metrics.snapshot().items()
        }
        out["node"] = str(exe.node)
        out["trace_enabled"] = "1" if exe.flightrec is not None else "0"
        if exe.flightrec is not None:
            hops = project_hops(exe.node, exe.flightrec.records)
            for hop in hops[-MAX_EXPORT_HOPS:]:
                out[f"s{hop.seq}"] = encode_hop(hop)
        return out

    def _on_params_get(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self.exports += 1
        snapshot = self.local_snapshot()
        if frame.payload_size:
            keys = decode_params(frame.payload).keys()
            snapshot = {k: snapshot.get(k, "") for k in keys}
        self.reply(frame, encode_params(snapshot))

    def export_counters(self) -> dict[str, object]:
        return {"exports": self.exports}


class TelemetryCollector(PeriodicSweeper, Requester):
    """Cluster-wide snapshot aggregation and trace stitching.

    ``watch(node, proxy_tid)`` registers one agent per node; every
    :meth:`sweep` (manual, or periodic via :class:`PeriodicSweeper`)
    pulls each agent's snapshot with a correlated ``UtilParamsGet`` —
    one :meth:`~repro.core.request.Requester.request` per node, in a
    per-node slot, so an agent that never answers costs one pending
    entry however long it stays silent.
    Hops are deduplicated by ``(node, seq)`` — the agent exports its
    whole ring each time — and indexed by trace id; ``keep_spans``
    bounds collector memory the same way the ring's capacity bounds
    the node's.
    """

    device_class = "telemetry_collector"
    emits = (MT_PARAMS_SWEEP,)

    def __init__(self, name: str = "telemetry", *, keep_spans: int = 8192) -> None:
        super().__init__(name)
        self.keep_spans = keep_spans
        self.watched: dict[int, Tid] = {}
        #: node -> latest numeric metric snapshot
        self.node_metrics: dict[int, dict[str, float]] = {}
        #: node -> non-numeric reply values (e.g. state strings)
        self.node_info: dict[int, dict[str, str]] = {}
        self._spans: list[Hop] = []
        self._by_trace: dict[int, list[Hop]] = {}
        self._seen: set[tuple[int, int]] = set()
        self.sweeps = 0
        self.spans_collected = 0

    def on_plugin(self) -> None:
        self.table.bind(UTIL_PARAMS_GET, self.handle_reply)

    # -- sweeping -----------------------------------------------------------
    def watch(self, node: int, agent_tid: Tid) -> None:
        """Register ``node``'s telemetry agent, reachable at
        ``agent_tid`` (normally a local proxy)."""
        self.watched[node] = agent_tid

    def sweep(self) -> int:
        for node, tid in sorted(self.watched.items()):
            self.request(
                tid, function=UTIL_PARAMS_GET, slot=node,
                on_reply=functools.partial(self._on_snapshot, node),
            )
        self.sweeps += 1
        return len(self.watched)

    def on_unsolicited(self, frame: Frame) -> None:
        # Someone is observing the observer through the same scheme.
        counters = {k: str(v) for k, v in self.export_counters().items()}
        self.reply(frame, encode_params({**self.parameters, **counters}))

    def _on_snapshot(self, node: int, frame: Frame) -> None:
        if frame.is_failure:
            return
        metrics: dict[str, float] = {}
        info: dict[str, str] = {}
        for key, value in decode_params(frame.payload).items():
            if _HOP_KEY.match(key):
                self._ingest_hop(decode_hop(value))
                continue
            number = _parse_number(value)
            if number is None:
                info[key] = value
            else:
                metrics[key] = number
        self.node_metrics[node] = metrics
        self.node_info[node] = info

    def _ingest_hop(self, hop: Hop) -> None:
        key = (hop.node, hop.seq)
        if key in self._seen:
            return
        self._seen.add(key)
        self._spans.append(hop)
        self._by_trace.setdefault(hop.trace_id, []).append(hop)
        self.spans_collected += 1
        while len(self._spans) > self.keep_spans:
            old = self._spans.pop(0)
            self._seen.discard((old.node, old.seq))
            per_trace = self._by_trace.get(old.trace_id)
            if per_trace is not None:
                per_trace.remove(old)
                if not per_trace:
                    del self._by_trace[old.trace_id]

    # -- stitched traces ----------------------------------------------------
    def trace_ids(self) -> list[int]:
        return sorted(self._by_trace)

    def trace(self, trace_id: int) -> list[Hop]:
        """All collected hops of one trace, in the order
        :meth:`MergedTimeline.hops` gives the same records."""
        return sorted(self._by_trace.get(trace_id, ()), key=hop_order)

    def timeline(self, trace_id: int) -> list[dict[str, int]]:
        """One trace as an end-to-end list of JSON-ready hop records."""
        return [dataclasses.asdict(hop) for hop in self.trace(trace_id)]

    # -- aggregation and export ---------------------------------------------
    def cluster_totals(self) -> dict[str, float]:
        """Sum of every numeric metric across swept nodes."""
        totals: dict[str, float] = {}
        for metrics in self.node_metrics.values():
            for key, value in metrics.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def render_prometheus(self) -> str:
        """The latest cluster snapshot in the Prometheus text format."""
        lines = ["# repro cluster telemetry (one block per swept node)"]
        for node in sorted(self.node_metrics):
            lines.extend(
                prometheus_lines(self.node_metrics[node], {"node": node})
            )
        lines.extend(
            prometheus_lines(
                {
                    "collector_sweeps": self.sweeps,
                    "collector_spans": len(self._spans),
                    "collector_traces": len(self._by_trace),
                },
                {"node": self._node_label()},
            )
        )
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        return json.dumps(
            {
                "nodes": {
                    str(node): metrics
                    for node, metrics in sorted(self.node_metrics.items())
                },
                "totals": self.cluster_totals(),
                "traces": {
                    format(trace_id, "x"): self.timeline(trace_id)
                    for trace_id in self.trace_ids()
                },
            },
            sort_keys=True,
        )

    def _node_label(self) -> int:
        return self.executive.node if self.executive is not None else -1

    def export_counters(self) -> dict[str, object]:
        return {
            **super().export_counters(),
            "sweeps": self.sweeps,
            "nodes_watched": len(self.watched),
            "nodes_reporting": len(self.node_metrics),
            "spans": len(self._spans),
            "traces": len(self._by_trace),
        }


def _fmt_number(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _parse_number(text: str) -> float | None:
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return None


#: The bootstrap ``observability`` section (:func:`install_observability`):
#: the whole instrument kit on every node.  Everything else the
#: instruments take keeps its constructor default.
OBSERVABILITY_SCHEMA = ParamSchema([
    ParamSpec("dir", str, default="",
              description="where the rings spill as node<NNN>.flightrec "
                          "(unset = diskless rings, spill is a no-op)"),
    ParamSpec("capacity", int, default=4096, minimum=8,
              description="flight-recorder ring capacity in records per "
                          "node"),
    ParamSpec("hz", float, default=97.0, minimum=1.0, maximum=10_000.0,
              description="stack sampling rate (prime-ish defaults "
                          "avoid lockstep with periodic work)"),
    ParamSpec("dispatch_budget_ns", int, default=0, minimum=0,
              description="the flight recorder's slow-frame budget per "
                          "dispatch; overruns record EV_SLOW_FRAME and "
                          "spill the ring (0 = off)"),
])


def install_observability(
    cluster: "Cluster", options: dict[str, Any], nodes: list[int]
) -> None:
    """The bootstrap ``observability`` section: the whole instrument kit
    on each of ``nodes``.

    Each node gets one dispatch observer (DESIGN §8): a
    ``FlightRecorder`` — which also stamps trace ids, holds the dispatch
    budget and fills ``exe_dispatch_ns``, here with trace-id exemplars
    on — spilling to ``<dir>/node<NNN>.flightrec`` on ``hard_stop``,
    watchdog trips, sanitizer violations, uncaught dispatch exceptions
    and budget overruns.  The cluster's ``SamplingProfiler`` watches
    every node without attaching to it.  Every node also gets a
    ``TelemetryAgent``, and the lowest node hosts the
    ``TelemetryCollector``.  A rejoined node's recorder spills as
    ``node<NNN>-inc<K>.flightrec`` for its K-th incarnation, so the dead
    one's dump survives its successor.

    The sampler's thread only starts with ``Cluster.start_all`` — in
    single-threaded pump loops call ``cluster.profiler.watch_thread(node)``
    then ``start()`` yourself.
    """
    from repro.flightrec.recorder import FlightRecorder
    from repro.profile.sampler import SamplingProfiler

    directory = options["dir"] or None
    if directory:
        os.makedirs(directory, exist_ok=True)
    if cluster.profiler is None:
        cluster.profiler = SamplingProfiler(options["hz"])
    for node in nodes:
        exe = cluster.executives[node]
        incarnation = cluster.incarnations[node]
        cluster.flight_recorders[node] = exe.attach(FlightRecorder(
            capacity=options["capacity"], dump_dir=directory,
            budget_ns=options["dispatch_budget_ns"],
            name=f"node{node:03d}-inc{incarnation}" if incarnation > 1
            else None,
        ))
        exe.metrics.histogram(
            "exe_dispatch_ns", DISPATCH_LATENCY_BUCKETS_NS
        ).enable_exemplars()
        cluster.profiler.register(exe)
        agent = TelemetryAgent(name=f"telemetry-agent{node}")
        cluster.install(node, agent)
        cluster.telemetry_agents[node] = agent
    home = min(cluster.executives)
    if home in nodes:
        collector = cluster.collector = TelemetryCollector(
            name="telemetry-collector"
        )
        cluster.install(home, collector)
        for node, agent in cluster.telemetry_agents.items():
            collector.watch(node, cluster.proxy(home, agent.name))
