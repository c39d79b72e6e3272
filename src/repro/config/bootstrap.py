"""Declarative cluster bootstrap.

Paper §2: configuration must cover "all cluster components, whether
the hardware, the framework or the applications, according to one
common scheme".  This module is that scheme's front door: one
declarative specification builds the executives, joins them with a
transport, instantiates and installs the devices, applies their
parameters and resolves named proxies — the boilerplate every example
and test would otherwise repeat.

Specification shape (plain dicts, JSON/Tcl-friendly)::

    spec = {
        "transport": "loopback",            # loopback | queue-mesh
        "supervision": {                    # optional liveness/failover
            "interval_ns": 1_000_000,
            "suspect_after": 2,
            "dead_after": 4,
            "rejoin_after": 3,
            "policy": "rebind",             # rebind | park | none
        },
        "nodes": {
            0: {"devices": [
                {"class": "repro.daq.trigger.TriggerSource",
                 "name": "trigger"},
                {"class": "repro.daq.manager.EventManager",
                 "name": "evm",
                 "params": {"some_key": "value"}},
            ]},
            1: {"devices": [
                {"class": "repro.daq.readout.ReadoutUnit",
                 "name": "ru0",
                 "kwargs": {"ru_id": 0}},
            ]},
        },
    }
    cluster = bootstrap(spec)
    cluster.proxy(from_node=0, to="ru0")    # proxy TiD by device name

Device classes are addressed by import path; instances by unique name.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from operator import methodcaller
from typing import Any, Iterator

from repro.config.schema import (
    DATAFLOW_SCHEMA,
    DURABILITY_SCHEMA,
    OBSERVABILITY_SCHEMA,
    SUPERVISION_SCHEMA,
    ParamSchema,
    SchemaError,
)
from repro.core.device import Listener
from repro.core.executive import Executive
from repro.i2o.errors import I2OError
from repro.i2o.tid import Tid
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport
from repro.transports.queued import QueuePair, QueueTransport


class BootstrapError(I2OError):
    """Malformed specification or wiring failure."""


class UnknownDeviceError(BootstrapError, KeyError):
    """Lookup of a device name the cluster does not have.

    Doubles as a ``KeyError`` so callers indexing the cluster like a
    mapping can catch it idiomatically; the message names the missing
    device and lists what *is* there.
    """

    def __init__(self, name: str, available: Any) -> None:
        names = ", ".join(sorted(map(str, available))) or "<none>"
        self.message = f"no device named {name!r}; available: {names}"
        super().__init__(self.message)

    def __str__(self) -> str:
        # KeyError would repr() the message; keep it readable.
        return self.message




@dataclass
class Cluster:
    """The built system: executives plus a name → (node, tid) index."""

    executives: dict[int, Executive] = field(default_factory=dict)
    devices: dict[str, tuple[int, Tid, Listener]] = field(default_factory=dict)
    #: node -> its HeartbeatService, when the spec asked for supervision
    heartbeats: dict[int, "Listener"] = field(default_factory=dict)
    #: node -> its TelemetryAgent, when the spec asked for observability
    telemetry_agents: dict[int, "Listener"] = field(default_factory=dict)
    #: the TelemetryCollector, when the spec asked for observability
    collector: "Listener | None" = None
    #: device name -> its SegmentStore, when the spec asked for durability
    journals: dict[str, Any] = field(default_factory=dict)
    #: device name -> its SnapshotStore, when the spec asked for durability
    snapshots: dict[str, Any] = field(default_factory=dict)
    #: node -> its FlightRecorder, when the spec asked for observability
    flight_recorders: dict[int, Any] = field(default_factory=dict)
    #: the cluster-wide SamplingProfiler, when the spec asked for
    #: observability
    profiler: Any = None
    #: node -> its SlowFrameWatch, when the spec set a dispatch budget
    slow_watches: dict[int, Any] = field(default_factory=dict)
    #: the static emits→consumes DAG, when the spec asked for dataflow
    dataflow_graph: Any = None
    #: the cluster-wide credit ledger, when dataflow backpressure is on
    dataflow_ledger: Any = None

    def executive(self, node: int) -> Executive:
        exe = self.executives.get(node)
        if exe is None:
            raise BootstrapError(f"no node {node} in this cluster")
        return exe

    def device(self, name: str) -> Listener:
        return self._entry(name)[2]

    def tid(self, name: str) -> Tid:
        return self._entry(name)[1]

    def node_of(self, name: str) -> int:
        return self._entry(name)[0]

    def proxy(self, from_node: int, to: str,
              transport: str | None = None) -> Tid:
        """A proxy TiD on ``from_node`` for the device named ``to``."""
        node, tid, _ = self._entry(to)
        return self.executive(from_node).create_proxy(
            node, tid, transport=transport
        )

    def _entry(self, name: str) -> tuple[int, Tid, Listener]:
        entry = self.devices.get(name)
        if entry is None:
            raise UnknownDeviceError(name, self.devices)
        return entry

    # -- operation -----------------------------------------------------------
    def pump(self, max_rounds: int = 1_000_000) -> int:
        """Step every executive until the cluster is idle."""
        # ``map``, not a generator: ``any`` stopping early would close a
        # generator with a raised GeneratorExit on every busy round.
        step = methodcaller("step")
        for rounds in range(max_rounds):
            if not any(map(step, self.executives.values())):
                return rounds
        raise BootstrapError("cluster did not go idle")

    def start_supervision(self) -> None:
        """Begin heartbeating on every node (no-op without a
        ``supervision`` section in the spec)."""
        for hb in self.heartbeats.values():
            hb.start()  # type: ignore[attr-defined]

    def start_all(self) -> None:
        for exe in self.executives.values():
            exe.start()
        if self.profiler is not None:
            self.profiler.start()

    def stop_all(self) -> None:
        if self.profiler is not None:
            self.profiler.stop()
        for exe in self.executives.values():
            exe.stop()


def _load_class(path: str) -> type[Listener]:
    module_name, _, class_name = path.rpartition(".")
    if not module_name:
        raise BootstrapError(f"device class {path!r} must be a full path")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise BootstrapError(f"cannot import {module_name!r}: {exc}") from exc
    cls = getattr(module, class_name, None)
    if cls is None:
        raise BootstrapError(f"{module_name} has no class {class_name!r}")
    if not (isinstance(cls, type) and issubclass(cls, Listener)):
        raise BootstrapError(f"{path!r} is not a Listener subclass")
    return cls


def _section_options(
    schema: ParamSchema, name: str, conf: dict[str, Any]
) -> dict[str, Any]:
    """Validate one spec section against its schema: the typed values
    over the schema's defaults.  Any refusal names section and key."""
    unknown = sorted(set(conf) - {spec.name for spec in schema})
    if unknown:
        raise BootstrapError(
            f"bad {name} section: unknown {name} keys {unknown}"
        )
    for key, value in conf.items():
        if schema.spec(key).type is str and not isinstance(
            value, (str, os.PathLike)
        ):
            raise BootstrapError(
                f"bad {name} section: {key} must be a string or path"
            )
    try:
        options = schema.validate_update({
            key: value if isinstance(value, str)
            else schema.spec(key).format(value)
            for key, value in conf.items()
        })
    except SchemaError as exc:
        raise BootstrapError(f"bad {name} section: {exc}") from exc
    return {spec.name: spec.default for spec in schema} | options


def _join_transport(cluster: Cluster, kind: str) -> None:
    nodes = sorted(cluster.executives)
    if kind == "loopback":
        network = LoopbackNetwork()
        for node in nodes:
            PeerTransportAgent.attach(cluster.executives[node]).register(
                LoopbackTransport(network), default=True
            )
    elif kind == "queue-mesh":
        ptas = {
            node: PeerTransportAgent.attach(cluster.executives[node])
            for node in nodes
        }
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                pair = QueuePair(a, b)
                ptas[a].register(
                    QueueTransport(pair, name=f"q{a}-{b}"), nodes=[b]
                )
                ptas[b].register(
                    QueueTransport(pair, name=f"q{b}-{a}"), nodes=[a]
                )
    else:
        raise BootstrapError(f"unknown transport kind {kind!r}")


def _nodes_of(spec: dict[str, Any]) -> dict[Any, Any]:
    nodes_spec = spec.get("nodes")
    if not isinstance(nodes_spec, dict) or not nodes_spec:
        raise BootstrapError("spec needs a non-empty 'nodes' mapping")
    return nodes_spec


def spec_devices(spec: dict[str, Any]) -> Iterator[tuple[int, str, Listener]]:
    """Construct every device the spec names, in node order, as
    ``(node, name, device)``: ``params`` applied, nothing installed
    (``python -m repro.diag graph`` only reads their declarations)."""
    seen: set[str] = set()
    for node, node_spec in sorted(_nodes_of(spec).items()):
        for dev_spec in node_spec.get("devices", ()):
            cls = _load_class(dev_spec["class"])
            kwargs = dict(dev_spec.get("kwargs", {}))
            name = dev_spec.get("name")
            if name:
                kwargs.setdefault("name", name)
            device = cls(**kwargs)
            if name is None:
                name = device.name
            if name in seen:
                raise BootstrapError(f"duplicate device name {name!r}")
            seen.add(name)
            params = dev_spec.get("params")
            if params:
                device.parameters.update(
                    {k: str(v) for k, v in params.items()}
                )
            yield int(node), name, device


def bootstrap(spec: dict[str, Any]) -> Cluster:
    """Build a cluster from a declarative specification."""
    known = {"transport", "nodes", *(name for name, _ in _SECTIONS)}
    unknown = set(map(str, spec)) - known
    if unknown:
        raise BootstrapError(
            f"unknown spec keys {sorted(unknown)}; "
            f"known keys: {sorted(known)}"
        )
    cluster = Cluster()
    for node in sorted(_nodes_of(spec)):
        cluster.executives[int(node)] = Executive(node=int(node))
    _join_transport(cluster, spec.get("transport", "loopback"))
    for node, name, device in spec_devices(spec):
        tid = cluster.executives[node].install(device)
        cluster.devices[name] = (node, tid, device)
    for name, wire in _SECTIONS:
        conf = spec.get(name)
        if conf is None:
            continue
        if not isinstance(conf, dict):
            raise BootstrapError(
                f"{name!r} section must be a mapping, "
                f"got {type(conf).__name__}"
            )
        wire(cluster, dict(conf))
    return cluster


def _wire_supervision(cluster: Cluster, conf: dict[str, Any]) -> None:
    """Install a full mesh of HeartbeatServices (every node beats to
    and watches every other) configured from the spec section."""
    from repro.core.liveness import HeartbeatService

    options = _section_options(SUPERVISION_SCHEMA, "supervision", conf)
    policy = options.pop("policy")
    params = {key: str(value) for key, value in options.items()}
    params["failover_policy"] = policy
    nodes = sorted(cluster.executives)
    for node in nodes:
        exe = cluster.executives[node]
        discovery = next(
            (dev for dev in exe.devices().values()
             if dev.device_class == "discovery"),
            None,
        ) if policy != "none" else None
        hb = HeartbeatService(name=f"heartbeat{node}", discovery=discovery)
        hb.on_parameters(params)
        hb.parameters.update(params)
        exe.install(hb)
        cluster.devices[hb.name] = (node, hb.tid, hb)
        cluster.heartbeats[node] = hb
    for node, hb in cluster.heartbeats.items():
        for peer in nodes:
            if peer == node:
                continue
            peer_hb = cluster.heartbeats[peer]
            hb.monitor(
                peer,
                cluster.executives[node].create_proxy(peer, peer_hb.tid),
            )


def _wire_durability(cluster: Cluster, conf: dict[str, Any]) -> None:
    """Attach journals and snapshot stores per the spec section.

    Spec section (``dir`` required, the rest optional — see
    :data:`repro.config.schema.DURABILITY_SCHEMA`)::

        "durability": {
            "dir": "/var/lib/repro",    # journal/snapshot directory
            "journals": True,           # reliable_endpoint send journals
            "snapshots": True,          # daq_eventmanager snapshot stores
            "flush_every": 1,           # group-commit batch size
            "fsync": False,             # fsync on flush
            "compact_min_records": ..., # both default to SegmentStore's
            "compact_live_ratio": ...,  # own (repro.durable.segments)
        }

    Every ``reliable_endpoint`` device gets ``<dir>/<name>.journal``
    attached (and, because the device is already installed, recovery
    runs immediately: a pre-existing journal replays its unacked sends
    right here).  Every ``daq_eventmanager`` device gets
    ``<dir>/<name>.snapshot``; EVM restore stays explicit (call
    ``evm.recover()`` on the booted cluster): the ``dataflow`` section
    wires the RU/BU routes after this one, and restoring before they
    exist would relaunch events into the void.
    """
    from repro.durable.segments import SegmentStore, SnapshotStore

    merged = _section_options(DURABILITY_SCHEMA, "durability", conf)
    directory = merged["dir"]
    if not directory:
        raise BootstrapError("durability section needs a 'dir' path")
    os.makedirs(directory, exist_ok=True)
    for name, (_node, _tid, device) in sorted(cluster.devices.items()):
        if merged["journals"] and device.device_class == "reliable_endpoint":
            store = SegmentStore(
                os.path.join(directory, f"{name}.journal"),
                flush_every=int(merged["flush_every"]),
                fsync=bool(merged["fsync"]),
                compact_min_records=int(merged["compact_min_records"]),
                compact_live_ratio=float(merged["compact_live_ratio"]),
            )
            device.attach_journal(store)  # type: ignore[attr-defined]
            cluster.journals[name] = store
        elif merged["snapshots"] and device.device_class == "daq_eventmanager":
            snaps = SnapshotStore(os.path.join(directory, f"{name}.snapshot"))
            device.snapshot_store = snaps  # type: ignore[attr-defined]
            cluster.snapshots[name] = snaps


def _wire_observability(cluster: Cluster, conf: dict[str, Any]) -> None:
    """Give every node the whole instrument kit.

    Spec section (all keys optional — see
    :data:`repro.config.schema.OBSERVABILITY_SCHEMA`)::

        "observability": {
            "dir": "/var/lib/repro/crash",  # spill dir (unset = diskless)
            "capacity": 4096,               # ring records per node
            "hz": 97.0,                     # stack sampling rate
            "dispatch_budget_ns": 0,        # slow-frame watch (0 = off)
        }

    Each node's observers attach in one fixed order, which is their
    delivery order (DESIGN §8): a ``FlightRecorder`` spilling to
    ``<dir>/node<NNN>.flightrec`` on ``hard_stop``, watchdog trips,
    sanitizer violations and uncaught dispatch exceptions; the
    ``FrameTracer``; the ``DispatchTimer`` with trace-id exemplars on;
    the sampler's ``DispatchSlot``; and, with a budget, a
    ``SlowFrameWatch``, so a slow-frame capture lands in the ring after
    that dispatch's record.  Every node also gets a ``TelemetryAgent``,
    and the lowest node hosts the ``TelemetryCollector``.

    The sampler's thread only starts with :meth:`Cluster.start_all` —
    in single-threaded pump loops call
    ``cluster.profiler.watch_thread(node)`` then ``start()`` yourself.
    """
    from repro.core.metrics import DISPATCH_LATENCY_BUCKETS_NS, DispatchTimer
    from repro.core.telemetry import TelemetryAgent, TelemetryCollector
    from repro.core.tracing import FrameTracer
    from repro.flightrec.recorder import FlightRecorder
    from repro.profile.sampler import SamplingProfiler
    from repro.profile.watch import SlowFrameWatch

    options = _section_options(OBSERVABILITY_SCHEMA, "observability", conf)
    directory = options["dir"] or None
    if directory:
        os.makedirs(directory, exist_ok=True)
    budget = options["dispatch_budget_ns"]
    profiler = cluster.profiler = SamplingProfiler(options["hz"])
    nodes = sorted(cluster.executives)
    for node in nodes:
        exe = cluster.executives[node]
        cluster.flight_recorders[node] = exe.attach(
            FlightRecorder(capacity=options["capacity"], dump_dir=directory)
        )
        exe.attach(FrameTracer())
        exe.attach(DispatchTimer())
        exe.metrics.histogram(
            "exe_dispatch_ns", DISPATCH_LATENCY_BUCKETS_NS
        ).enable_exemplars()
        profiler.register(exe)
        if budget:
            cluster.slow_watches[node] = exe.attach(SlowFrameWatch(budget))
        agent = TelemetryAgent(name=f"telemetry-agent{node}")
        exe.install(agent)
        cluster.devices[agent.name] = (node, agent.tid, agent)
        cluster.telemetry_agents[node] = agent
    home = cluster.executives[nodes[0]]
    collector = cluster.collector = TelemetryCollector(
        name="telemetry-collector"
    )
    home.install(collector)
    cluster.devices[collector.name] = (nodes[0], collector.tid, collector)
    for node, agent in cluster.telemetry_agents.items():
        collector.watch(node, home.create_proxy(node, agent.tid))


def _wire_dataflow(cluster: Cluster, conf: dict[str, Any]) -> None:
    """Derive every route table from the devices' consumes/emits
    declarations and wire queue-capacity backpressure on top.

    Spec section (all keys optional — see
    :data:`repro.config.schema.DATAFLOW_SCHEMA`)::

        "dataflow": {
            "edge_credits": 64,     # default per-consumer capacity
            "park_limit": 256,      # parked-emission slots per node
            "strict": True,         # analysis diagnostics are fatal
            "backpressure": True,   # False = routes only, uncapped
        }

    The section is one call to :func:`repro.dataflow.wire_dataflow`
    over every *installed* device — including the ones the sections
    before it added, e.g. telemetry agents.
    """
    from repro.dataflow.wiring import wire_dataflow

    merged = _section_options(DATAFLOW_SCHEMA, "dataflow", conf)
    try:
        cluster.dataflow_graph, cluster.dataflow_ledger = wire_dataflow(
            cluster.executives, **merged
        )
    except I2OError as exc:
        raise BootstrapError(str(exc)) from exc


#: Optional spec sections in wiring order; ``dataflow`` last, so the
#: derived routes cover every installed device — including the ones
#: the sections before it added (heartbeats, telemetry agents).
_SECTIONS = (
    ("supervision", _wire_supervision),
    ("observability", _wire_observability),
    ("durability", _wire_durability),
    ("dataflow", _wire_dataflow),
)
