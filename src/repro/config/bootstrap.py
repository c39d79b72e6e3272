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
            "failover_policy": "rebind",    # rebind | park | none
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

from repro.config.schema import ParamSchema, SchemaError
from repro.core.device import Listener
from repro.core.executive import Executive
from repro.core.liveness import HeartbeatService, install_supervision
from repro.core.telemetry import OBSERVABILITY_SCHEMA, install_observability
from repro.dataflow.wiring import DATAFLOW_SCHEMA, install_dataflow
from repro.durable.segments import DURABILITY_SCHEMA, install_durability
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


def _mapping(value: Any, what: str) -> dict[Any, Any]:
    if not isinstance(value, dict):
        raise BootstrapError(
            f"{what} must be a mapping, got {type(value).__name__}"
        )
    return value


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


def _nodes_of(spec: dict[str, Any]) -> list[tuple[int, dict[str, Any]]]:
    """The spec's ``(node id, node spec)`` pairs in node order."""
    nodes_spec = spec.get("nodes")
    if not isinstance(nodes_spec, dict) or not nodes_spec:
        raise BootstrapError("spec needs a non-empty 'nodes' mapping")
    nodes: dict[int, dict[str, Any]] = {}
    for key, node_spec in nodes_spec.items():
        try:
            node = int(key)
        except (TypeError, ValueError):
            raise BootstrapError(f"node id {key!r} is not an integer") from None
        if node in nodes:
            raise BootstrapError(f"node {node} is given twice")
        nodes[node] = _mapping(node_spec, f"node {node} spec")
    return sorted(nodes.items())


def _device(entry: Any) -> tuple[str, Listener]:
    """One device entry constructed, its ``params`` applied."""
    entry = _mapping(entry, "entry")
    path = entry.get("class")
    if not isinstance(path, str):
        raise BootstrapError("entry needs a 'class' import path")
    cls = _load_class(path)
    kwargs = dict(_mapping(entry.get("kwargs", {}), "kwargs"))
    params = _mapping(entry.get("params", {}), "params")
    name = entry.get("name")
    if name:
        kwargs.setdefault("name", name)
    try:
        device = cls(**kwargs)
    except TypeError as exc:
        raise BootstrapError(f"cannot construct {path}: {exc}") from exc
    device.parameters.update({k: str(v) for k, v in params.items()})
    return name or device.name, device


def spec_devices(spec: dict[str, Any]) -> Iterator[tuple[int, str, Listener]]:
    """Construct every device the spec names, in node order, as
    ``(node, name, device)``: ``params`` applied, nothing installed
    (``python -m repro.diag graph`` only reads their declarations).
    A malformed entry is refused naming its node and index."""
    seen: set[str] = set()
    for node, node_spec in _nodes_of(spec):
        entries = node_spec.get("devices", ())
        if not isinstance(entries, (list, tuple)):
            raise BootstrapError(
                f"node {node}: devices must be a list, "
                f"got {type(entries).__name__}"
            )
        for index, entry in enumerate(entries):
            try:
                name, device = _device(entry)
                if name in seen:
                    raise BootstrapError(f"duplicate device name {name!r}")
            except BootstrapError as exc:
                raise BootstrapError(
                    f"node {node} device {index}: {exc}"
                ) from exc
            seen.add(name)
            yield node, name, device


def bootstrap(spec: dict[str, Any]) -> Cluster:
    """Build a cluster from a declarative specification."""
    known = {"transport", "nodes", *(name for name, _, _ in _SECTIONS)}
    unknown = set(map(str, spec)) - known
    if unknown:
        raise BootstrapError(
            f"unknown spec keys {sorted(unknown)}; "
            f"known keys: {sorted(known)}"
        )
    cluster = Cluster()
    for node, _ in _nodes_of(spec):
        cluster.executives[node] = Executive(node=node)
    _join_transport(cluster, spec.get("transport", "loopback"))
    for node, name, device in spec_devices(spec):
        tid = cluster.executives[node].install(device)
        cluster.devices[name] = (node, tid, device)
    for name, schema, install in _SECTIONS:
        conf = spec.get(name)
        if conf is None:
            continue
        options = _section_options(
            schema, name, _mapping(conf, f"{name!r} section")
        )
        try:
            install(cluster, options)
        except I2OError as exc:
            raise BootstrapError(f"{name} section: {exc}") from exc
    return cluster


#: The optional spec sections in install order, as ``(name, schema,
#: install)``: ``install(cluster, options)`` gets the section's typed
#: values over its schema's defaults.  ``dataflow`` follows the
#: sections that add devices (heartbeats, telemetry agents), so its
#: derived routes cover them; ``durability`` adds none and goes last,
#: so no later refusal can leave its journals open.
_SECTIONS = (
    ("supervision", HeartbeatService.schema, install_supervision),
    ("observability", OBSERVABILITY_SCHEMA, install_observability),
    ("dataflow", DATAFLOW_SCHEMA, install_dataflow),
    ("durability", DURABILITY_SCHEMA, install_durability),
)
