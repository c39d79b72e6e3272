"""Cluster telemetry over the standard utility message scheme.

Paper §2: every component is observable "according to one common
scheme" — the standard executive/utility messages, no side channel:

* :func:`node_snapshot` — a node's metric series, built when read
  from its owners' ``export_counters()`` and named by one rule.
* :class:`TelemetryAgent` — one per node; answers ``UtilParamsGet``
  with the node's metrics snapshot and its flight-recorder records
  since a given seq.  It adds no private verbs.
* :class:`TelemetryCollector` — on one node; sweeps every agent through
  proxies, aggregates metrics, mirrors each ring (:class:`RingMirror`)
  and reads hops, critical paths and gaps through the same
  :class:`~repro.flightrec.timeline.MergedTimeline` a dead cluster's
  dumps go through; derives each node's dispatch-latency percentiles
  from its mirror; renders Prometheus-text and JSON dumps.

The collector's only view of a remote node is the byte payload of a
``UtilParamsGet`` reply: no private function codes, no cross-node
Python object access.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import json
import os
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.config.schema import ParamSchema, ParamSpec
from repro.core.device import Listener, decode_params, encode_params
from repro.core.metrics import format_value, prometheus_lines, sanitize_metric_name
from repro.core.request import Requester
from repro.dataflow.registry import message_type
from repro.flightrec.records import (
    RECORD_SIZE, FlightRecError, FlightRecord, decode_records,
)
from repro.flightrec.timeline import MergedTimeline, dispatch_percentiles
from repro.i2o.frame import Frame
from repro.i2o.function_codes import UTIL_PARAMS_GET
from repro.i2o.tid import Tid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config.bootstrap import Cluster
    from repro.core.executive import Executive

#: The sweep is an ordinary ``UtilParamsGet`` (no private verb); the
#: declared type exists so the collector->agent edges show up in the
#: dataflow DAG.
MT_PARAMS_SWEEP = message_type(
    "telemetry.params-sweep", 0, function=UTIL_PARAMS_GET, mode="fanout"
)

#: Records one ``UtilParamsGet`` reply carries at most (48 KiB packed,
#: 64 KiB as base64): one reply stays inside one frame however large
#: the node's ring is, and the collector asks again for the rest.
MAX_EXPORT_RECORDS = 1024

#: The dispatch-latency percentiles the collector reads off each
#: mirrored ring: ``node_metrics`` key -> percentile.
DISPATCH_PERCENTILES = {"exe_dispatch_ns_p50": 50, "exe_dispatch_ns_p99": 99}


def node_snapshot(exe: "Executive") -> dict[str, float]:
    """The node's metric series, read now from what the node holds.

    Every counter has one producer, its owner's ``export_counters()``:
    the installed devices that declare a ``metric_kind`` (TiD order),
    the attached observers, the dataflow outbox, and the tallies of the
    profiler that registered the node.  One naming rule: a key is the
    series name, qualified as ``<kind>_<name>_<key>`` for an owner a
    node may hold several of (``metric_kind`` set, e.g. ``pt``, ``rel``);
    every same-named owner after the first carries ``_t<TiD>`` after its
    name, as does a series whose name a device before it took (a second
    one-per-node owner).  A series lives exactly as long as its owner.
    """
    series: dict[str, Any] = {}
    taken: set[str] = set()
    for tid, device in sorted(exe.devices().items()):
        kind = device.metric_kind
        if kind is None:
            continue
        prefix = ""
        if kind:
            prefix = f"{kind}_{sanitize_metric_name(device.name)}"
            if prefix in taken:
                prefix += f"_t{tid}"
            taken.add(prefix)
            prefix += "_"
        for key, value in device.export_counters().items():
            name = prefix + key
            if name in series:
                name += f"_t{tid}"
            series[name] = value
    for owner in (*exe.observers, exe.dataflow_outbox):
        if owner is not None:
            series.update(owner.export_counters())
    profiler = exe.profiler
    if profiler is not None:
        series["prof_samples_total"] = profiler.node_samples[exe.node]
        series["prof_busy_samples_total"] = profiler.node_busy[exe.node]
    return series


class TelemetryAgent(Listener):
    """Per-node exporter of metrics and flight-recorder records.

    Answers ``UtilParamsGet`` with a *fresh* map, not ``parameters``
    (the ring value changes every sweep).  A ``since=<seq>`` request
    parameter names the first record wanted; other keys select.
    """

    device_class = "telemetry_agent"
    consumes = (MT_PARAMS_SWEEP,)

    def __init__(self, name: str = "telemetry-agent") -> None:
        super().__init__(name)
        self.exports = 0

    def local_snapshot(self, since: int = 0) -> dict[str, str]:
        """Metrics, plus ``ring`` (base64 of at most
        :data:`MAX_EXPORT_RECORDS` packed records with seq >= ``since``,
        oldest first) and ``ring_capacity`` when a ring is attached."""
        exe = self._require_live()
        out = {key: format_value(value) for key, value in node_snapshot(exe).items()}
        out["node"] = str(exe.node)
        ring = exe.flightrec
        out["trace_enabled"] = "1" if ring is not None else "0"
        if ring is not None:
            batch = [r for r in ring.records if r.seq >= since][:MAX_EXPORT_RECORDS]
            out["ring"] = base64.b64encode(b"".join(r.pack() for r in batch)).decode()
            out["ring_capacity"] = str(ring.capacity)
        return out

    def _on_params_get(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self.exports += 1
        request = decode_params(frame.payload) if frame.payload_size else {}
        try:
            snapshot = self.local_snapshot(int(request.pop("since", "0")))
        except ValueError:
            self.reply(frame, fail=True)
            return
        if request:
            snapshot = {k: snapshot.get(k, "") for k in request}
        self.reply(frame, encode_params(snapshot))

    def export_counters(self) -> dict[str, object]:
        return {"exports": self.exports}


class RingMirror:
    """The collector's copy of one node incarnation's ring: a record
    source (``.node``, ``.records``) like a dump or a live recorder.
    ``cursor`` is the next seq to ask for; ``missed`` counts records
    the ring overwrote before a sweep reached them; ``latency`` holds
    the dispatch percentiles of the records mirrored so far."""

    def __init__(self, node: int, tid: Tid) -> None:
        self.node = node
        self.tid = tid
        self.records: deque[FlightRecord] = deque()
        self.cursor = 0
        self.missed = 0
        self.latency: dict[str, int] = {}

    def ingest(self, ring: str, capacity: str) -> int:
        """Append one reply's records; returns how many were new.  A
        malformed reply raises and leaves the mirror as it was."""
        try:
            body = base64.b64decode(ring, validate=True)
            bound = int(capacity)
            if len(body) % RECORD_SIZE or bound < 0:
                raise ValueError(f"{len(body)} bytes, capacity {bound}")
        except ValueError as exc:  # binascii.Error included
            raise FlightRecError(
                f"node {self.node}: malformed ring reply: {exc}"
            ) from None
        batch = decode_records(body)
        fresh = [r for r in batch if r.seq >= self.cursor]
        if fresh:
            self.missed += fresh[0].seq - self.cursor
            self.cursor = fresh[-1].seq + 1
        self.records = deque([*self.records, *fresh], maxlen=bound)
        return len(fresh)


class TelemetryCollector(Requester):
    """Cluster-wide metrics aggregation and ring mirroring: each
    :meth:`sweep` asks every watched agent for its snapshot and the
    records since its mirror's cursor — one correlated ``UtilParamsGet``
    per node, in a per-node slot, so a silent agent costs one entry.
    A reply that was a whole batch of new records is followed by the
    next ask, so one sweep drains every ring however far behind."""

    device_class = "telemetry_collector"
    emits = (MT_PARAMS_SWEEP,)

    def __init__(self, name: str = "telemetry") -> None:
        super().__init__(name)
        #: node -> the mirror of its current incarnation's ring
        self.watched: dict[int, RingMirror] = {}
        #: every mirror watched, dead incarnations' included
        self.mirrors: list[RingMirror] = []
        #: node -> latest numeric metric snapshot
        self.node_metrics: dict[int, dict[str, float]] = {}
        #: node -> non-numeric reply values (e.g. state strings)
        self.node_info: dict[int, dict[str, str]] = {}
        self.sweeps = 0
        self._merged: MergedTimeline | None = None

    def on_plugin(self) -> None:
        self.table.bind(UTIL_PARAMS_GET, self.handle_reply)

    # -- sweeping -----------------------------------------------------------
    def watch(self, node: int, agent_tid: Tid) -> None:
        """Mirror ``node``'s ring through its agent at ``agent_tid`` (a
        proxy).  A fresh mirror each call: a rejoined node restarts at
        seq 0, and the dead incarnation's mirror stays in :meth:`merged`."""
        self.watched[node] = mirror = RingMirror(node, agent_tid)
        self.mirrors.append(mirror)
        self._merged = None

    def sweep(self) -> int:
        for _, mirror in sorted(self.watched.items()):
            self._ask(mirror)
        self.sweeps += 1
        return len(self.watched)

    def _ask(self, mirror: RingMirror) -> None:
        self.request(
            mirror.tid, encode_params({"since": str(mirror.cursor)}),
            function=UTIL_PARAMS_GET, slot=mirror.node,
            on_reply=functools.partial(self._on_snapshot, mirror),
        )

    def on_unsolicited(self, frame: Frame) -> None:
        # Someone is observing the observer through the same scheme.
        counters = {k: str(v) for k, v in self.export_counters().items()}
        self.reply(frame, encode_params({**self.parameters, **counters}))

    def _on_snapshot(self, mirror: RingMirror, frame: Frame) -> None:
        if frame.is_failure:
            return
        params = decode_params(frame.payload)
        # A node with no ring sends neither key: its mirror stays empty.
        fresh = mirror.ingest(params.pop("ring", ""), params.pop("ring_capacity", "0"))
        if fresh:
            self._merged = None
            mirror.latency = dict(zip(DISPATCH_PERCENTILES, dispatch_percentiles(
                mirror.records, DISPATCH_PERCENTILES.values())))
        metrics: dict[str, float] = {}
        info: dict[str, str] = {}
        for key, value in params.items():
            number = _parse_number(value)
            if number is None:
                info[key] = value
            else:
                metrics[key] = number
        metrics.update(mirror.latency)
        self.node_metrics[mirror.node] = metrics
        self.node_info[mirror.node] = info
        # A whole batch of new records: the ring holds more.  Not for a
        # mirror a rejoin replaced: the agent's TiD now answers for the
        # new incarnation's ring.
        if fresh >= MAX_EXPORT_RECORDS and self.watched.get(mirror.node) is mirror:
            self._ask(mirror)

    def merged(self) -> MergedTimeline:
        """The timeline over every mirror, as over a dead cluster's
        dumps; rebuilt only after new records arrived."""
        if self._merged is None:
            self._merged = MergedTimeline(self.mirrors)
        return self._merged

    # -- aggregation and export ---------------------------------------------
    def cluster_totals(self) -> dict[str, float]:
        """Sum of every numeric metric across swept nodes (percentiles
        do not sum, so they are left out)."""
        totals: dict[str, float] = {}
        for metrics in self.node_metrics.values():
            for key, value in metrics.items():
                if key not in DISPATCH_PERCENTILES:
                    totals[key] = totals.get(key, 0) + value
        return totals

    def render_prometheus(self) -> str:
        """The latest cluster snapshot in the Prometheus text format."""
        lines = ["# repro cluster telemetry (one block per swept node)"]
        for node in sorted(self.node_metrics):
            lines.extend(prometheus_lines(self.node_metrics[node], {"node": node}))
        lines.extend(prometheus_lines(
            {f"collector_{k}": v for k, v in self.export_counters().items()
             if k in ("sweeps", "records", "missed_records", "traces")},
            {"node": self._node_label()},
        ))
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        merged = self.merged()
        return json.dumps(
            {
                "nodes": {
                    str(node): metrics
                    for node, metrics in sorted(self.node_metrics.items())
                },
                "totals": self.cluster_totals(),
                "traces": {
                    format(t, "x"): [dataclasses.asdict(h) for h in merged.hops(t)]
                    for t in merged.trace_ids()
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
            "records": sum(len(m.records) for m in self.mirrors),
            "missed_records": sum(m.missed for m in self.mirrors),
            "traces": len(self.merged().trace_ids()),
        }


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
    """The bootstrap ``observability`` section on each of ``nodes``.

    Each node gets one dispatch observer (DESIGN §8), a
    ``FlightRecorder`` (it stamps trace ids, holds the dispatch budget
    and records the dispatch durations the collector's P50/P99 are
    read from) spilling to
    ``<dir>/node<NNN>.flightrec`` on ``hard_stop``, watchdog trips,
    sanitizer violations, dispatch exceptions and budget overruns, and
    a ``TelemetryAgent``; the cluster's ``SamplingProfiler`` watches it
    without attaching.  The lowest node hosts the ``TelemetryCollector``.
    A rejoined node's K-th incarnation spills as
    ``node<NNN>-inc<K>.flightrec`` and gets a fresh mirror, so the dead
    one's dump and mirror both survive it.  The sampler's thread starts
    with ``Cluster.start_all`` (in a pump loop: ``watch_thread``, then
    ``start()``).
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
        cluster.profiler.register(exe)
        agent = TelemetryAgent(name=f"telemetry-agent{node}")
        cluster.install(node, agent)
        cluster.telemetry_agents[node] = agent
    home = min(cluster.executives)
    collector = cluster.collector
    if home in nodes:
        collector = cluster.collector = TelemetryCollector(name="telemetry-collector")
        cluster.install(home, collector)
        nodes = list(cluster.telemetry_agents)
    assert isinstance(collector, TelemetryCollector)
    for node in nodes:  # at a rejoin: a fresh mirror for the new incarnation
        collector.watch(node, cluster.proxy(home, cluster.telemetry_agents[node].name))
