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
        "transport": "loopback",            # loopback | queue-mesh | simgm
        "faults": {                         # optional: a lossy loopback
            "drop_rate": 0.05,
            "duplicate_rate": 0.0,
            "seed": 7,                      # node N draws from seed + N
        },
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

Transports: ``loopback`` (with a ``faults`` section, a seeded lossy
``FaultyLoopbackTransport`` named ``faulty``), ``queue-mesh`` (a queue
pair per node pair) and ``simgm`` (the modelled Myrinet/GM fabric).
``clock=`` picks the plane: none runs wall clocks; a ``SimClock`` hosts
every executive in a ``SimNode`` on its simulator (``simgm`` needs
one); any other ``Clock`` is shared, the caller advancing it and
calling ``cluster.pump()``.  ``cluster.kill(node)`` and
``cluster.rejoin(node)`` crash a node and boot its next incarnation.

Device classes are addressed by import path; instances by unique name.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from operator import attrgetter, methodcaller
from typing import Any, Callable, Iterator

from repro.config.schema import ParamSchema, SchemaError
from repro.core.device import Listener
from repro.core.executive import Executive
from repro.hw.clock import Clock, SimClock
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

    #: registers one executive's transports on the cluster's one wire
    join: Callable[[Executive], None] = field(repr=False)
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
    #: the static emits→consumes DAG, when the spec asked for dataflow
    dataflow_graph: Any = None
    #: the cluster-wide credit ledger, when dataflow backpressure is on
    dataflow_ledger: Any = None
    #: what :meth:`rejoin` rebuilds from besides the wire: the spec,
    #: its sections' validated options and the boot clock
    spec: dict[str, Any] = field(default_factory=dict)
    options: dict[str, dict[str, Any]] = field(default_factory=dict)
    clock: Clock | None = None
    #: node -> how many executives have held that node id
    incarnations: dict[int, int] = field(default_factory=dict)

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
        return self.executive(from_node).routes.create_proxy(
            node, tid, transport=transport
        )

    def _entry(self, name: str) -> tuple[int, Tid, Listener]:
        entry = self.devices.get(name)
        if entry is None:
            raise UnknownDeviceError(name, self.devices)
        return entry

    # -- construction (boot and rejoin share every step) ---------------------
    def install(self, node: int, device: Listener) -> Tid:
        """Install ``device`` on ``node`` under its name.  A name the
        cluster already knows on that node keeps its TiD, so a rejoined
        node's devices come back where its peers' proxies point."""
        known = self.devices.get(device.name)
        tid = self.executive(node).install(
            device, tid=known[1] if known and known[0] == node else None
        )
        self.devices[device.name] = (node, tid, device)
        return tid

    def _boot(self, node: int) -> Executive:
        """A fresh executive for ``node`` on the cluster's clock, joined
        to its wire."""
        exe = Executive(node=node, clock=self.clock)
        if isinstance(self.clock, SimClock):
            from repro.core.simnode import SimNode

            host = SimNode(self.clock.sim, exe)
            self.join(exe)
            host.attach_transport_hooks()
        else:
            self.join(exe)
        self.executives[node] = exe
        self.incarnations[node] = self.incarnations.get(node, 0) + 1
        return exe

    def _install_sections(self, nodes: list[int]) -> None:
        """Run every present section's installer for ``nodes``, in
        install order (``options`` was built in that order)."""
        for name, options in self.options.items():
            install = _section(name)[1]
            if install is None:
                continue
            try:
                install(self, options, nodes)
            except I2OError as exc:
                raise BootstrapError(f"{name} section: {exc}") from exc

    def kill(self, node: int) -> None:
        """``kill -9`` one node: its journals crash (what was not yet
        flushed is lost), then its executive hard-stops — the recorder,
        if any, spills with reason ``hard_stop``."""
        exe = self.executive(node)
        for name, store in self.journals.items():
            if self.node_of(name) == node:
                store.crash()
        exe.hard_stop()

    def rejoin(self, node: int) -> Executive:
        """Boot ``node``'s next incarnation after :meth:`kill`: a fresh
        executive on the same clock and wire (a lossy wire draws from
        the same seed again), the node's spec devices at the TiDs the
        dead incarnation held, then every section installer for this
        node alone — journals reopen and replay, and the recorder spills
        under a name its predecessor's dump does not have.  Nothing is
        started (threads, heartbeats), and restoring an EventManager
        stays explicit: call ``evm.recover()``."""
        self.executive(node)  # refuses a node the spec does not have
        try:
            exe = self._boot(node)
            for device in _node_devices(node, dict(_nodes_of(self.spec))[node]):
                self.install(node, device)
            self._install_sections([node])
        except I2OError as exc:
            raise BootstrapError(f"rejoin node {node}: {exc}") from exc
        return exe

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


#: GM tokens per ``simgm`` port: enough that a whole event-builder
#: burst queues in the modelled NICs, not behind the host.
GM_SEND_TOKENS = 64
GM_RECV_TOKENS = 256


def _wire(
    kind: str, faults: dict[str, Any] | None, clock: Clock | None,
    nodes: list[int],
) -> Callable[[Executive], None]:
    """The transport kind's join: it registers one executive's
    transports on the one medium every incarnation of every node
    shares (a rejoined node re-registers on the same one)."""
    if faults is not None and kind != "loopback":
        raise BootstrapError(
            f"faults section: needs transport 'loopback', got {kind!r}"
        )

    def default_pt(make: Callable[[Executive], Any]) -> Any:
        return lambda exe: PeerTransportAgent.attach(exe).register(
            make(exe), default=True
        )

    if kind == "loopback":
        network = LoopbackNetwork()
        if faults is None:
            return default_pt(lambda exe: LoopbackTransport(network))
        from repro.transports.faulty import FaultPlan, FaultyLoopbackTransport

        plan = FaultPlan(drop_rate=faults["drop_rate"],
                         duplicate_rate=faults["duplicate_rate"])
        return default_pt(lambda exe: FaultyLoopbackTransport(
            network, plan, seed=faults["seed"] + exe.node
        ))
    if kind == "queue-mesh":
        pairs: dict[tuple[int, int], QueuePair] = {}

        def join(exe: Executive) -> None:
            pta = PeerTransportAgent.attach(exe)
            for peer in nodes:
                if peer == exe.node:
                    continue
                key = (min(exe.node, peer), max(exe.node, peer))
                if key not in pairs:
                    pairs[key] = QueuePair(*key)
                pta.register(QueueTransport(pairs[key], name=f"q{exe.node}-{peer}"),
                             nodes=[peer])

        return join
    if kind == "simgm":
        if not isinstance(clock, SimClock):
            raise BootstrapError("transport 'simgm' needs clock=SimClock")
        from repro.hw.myrinet import Fabric
        from repro.transports.simgm import SimGmTransport

        fabric = Fabric(clock.sim, ports=max(16, len(nodes)))
        return default_pt(lambda exe: SimGmTransport(
            fabric, send_tokens=GM_SEND_TOKENS, recv_tokens=GM_RECV_TOKENS
        ))
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


def _device(entry: Any) -> Listener:
    """One device entry constructed, its ``params`` applied."""
    entry = _mapping(entry, "entry")
    path = entry.get("class")
    if not isinstance(path, str):
        raise BootstrapError("entry needs a 'class' import path")
    cls = _load_class(path)
    kwargs = dict(_mapping(entry.get("kwargs", {}), "kwargs"))
    params = _mapping(entry.get("params", {}), "params")
    name = entry.get("name")
    if name is not None and not isinstance(name, str):
        raise BootstrapError(
            f"name must be a string, got {type(name).__name__}"
        )
    if name:
        kwargs.setdefault("name", name)
    try:
        device = cls(**kwargs)
    except (TypeError, I2OError) as exc:
        raise BootstrapError(f"cannot construct {path}: {exc}") from exc
    device.parameters.update({k: str(v) for k, v in params.items()})
    return device


def _node_devices(node: int, node_spec: dict[str, Any]) -> Iterator[Listener]:
    """One node's devices, constructed; a malformed entry is refused
    naming its node and index."""
    entries = node_spec.get("devices", ())
    if not isinstance(entries, (list, tuple)):
        raise BootstrapError(
            f"node {node}: devices must be a list, "
            f"got {type(entries).__name__}"
        )
    for index, entry in enumerate(entries):
        try:
            device = _device(entry)
        except BootstrapError as exc:
            raise BootstrapError(f"node {node} device {index}: {exc}") from exc
        yield device


def spec_devices(spec: dict[str, Any]) -> Iterator[tuple[int, str, Listener]]:
    """Construct every device the spec names, in node order, as
    ``(node, name, device)``: ``params`` applied, nothing installed
    (``python -m repro.diag graph`` only reads their declarations).
    A malformed entry or a repeated name is refused naming its node
    and index."""
    seen: set[str] = set()
    for node, node_spec in _nodes_of(spec):
        for index, device in enumerate(_node_devices(node, node_spec)):
            if device.name in seen:
                raise BootstrapError(
                    f"node {node} device {index}: "
                    f"duplicate device name {device.name!r}"
                )
            seen.add(device.name)
            yield node, device.name, device


def bootstrap(spec: dict[str, Any], *, clock: Clock | None = None) -> Cluster:
    """Build a cluster from a declarative specification, on wall clocks
    or on ``clock`` (see the module docstring)."""
    known = {"transport", "nodes", *_SECTION_SOURCES}
    unknown = set(map(str, spec)) - known
    if unknown:
        raise BootstrapError(
            f"unknown spec keys {sorted(unknown)}; "
            f"known keys: {sorted(known)}"
        )
    options = {
        name: _section_options(
            _section(name)[0], name, _mapping(spec[name], f"{name!r} section")
        )
        for name in _SECTION_SOURCES if spec.get(name) is not None
    }
    nodes = [node for node, _ in _nodes_of(spec)]
    join = _wire(spec.get("transport", "loopback"), options.get("faults"),
                 clock, nodes)
    cluster = Cluster(join, spec=spec, options=options, clock=clock)
    for node in nodes:
        try:
            cluster._boot(node)
        except I2OError as exc:
            raise BootstrapError(f"node {node}: {exc}") from exc
    for node, _name, device in spec_devices(spec):
        cluster.install(node, device)
    cluster._install_sections(nodes)
    return cluster


#: The optional spec sections in install order, each with the module
#: that owns it and, in that module, its schema and its installer.
#: ``install(cluster, options, nodes)`` gets the section's typed values
#: over its schema's defaults and the nodes to act on (every node at
#: boot, the one node on ``Cluster.rejoin``).  A section's module is
#: imported only when a spec names the section, so a boot loads no
#: subsystem it does not run.  ``faults`` has no installer: the wire
#: reads it as each executive joins.  ``dataflow`` follows the sections
#: that add devices (heartbeats, telemetry agents), so its derived
#: routes cover them; ``durability`` adds none and goes last, so no
#: later refusal can leave its journals open.
_SECTION_SOURCES: dict[str, tuple[str, str, str | None]] = {
    "faults": ("repro.transports.faulty", "FAULTS_SCHEMA", None),
    "supervision": ("repro.core.liveness", "HeartbeatService.schema",
                    "install_supervision"),
    "observability": ("repro.core.telemetry", "OBSERVABILITY_SCHEMA",
                      "install_observability"),
    "dataflow": ("repro.dataflow.wiring", "DATAFLOW_SCHEMA", "install_dataflow"),
    "durability": ("repro.durable.segments", "DURABILITY_SCHEMA",
                   "install_durability"),
}


def _section(name: str) -> tuple[ParamSchema, Callable[..., None] | None]:
    """Section ``name``'s schema and installer, its module imported."""
    path, schema, install = _SECTION_SOURCES[name]
    module = importlib.import_module(path)
    return (attrgetter(schema)(module),
            getattr(module, install) if install else None)


def sections() -> tuple[tuple[str, ParamSchema, Callable[..., None] | None], ...]:
    """Every section as ``(name, schema, install)``, in install order.

    It loads every section's module: it is for readers that list the
    spec surface, not for the boot path."""
    return tuple((section, *_section(section)) for section in _SECTION_SOURCES)
