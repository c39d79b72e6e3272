"""The static dataflow DAG: emits→consumes edges plus diagnostics.

Built once at bootstrap from the devices' class-level declarations (or
from a plain spec dict, without ever constructing an executive — the
CLI path).  The graph answers two questions:

* **is this topology sane?** — :meth:`DataflowGraph.analyze` returns
  named diagnostics instead of letting a bad wiring surface as a
  runtime dead-letter:

  - ``cycle``              the forward dataflow (feedback types
                           excluded) contains a loop; the message
                           names the device path around it;
  - ``missing-provider``   a device consumes a type nobody emits;
  - ``missing-consumer``   a device emits a type nobody consumes;
  - ``ambiguous-fan-in``   a ``mode="one"`` type has several
                           consumers, or a ``mode="keyed"`` type has
                           two consumers with the same key.

* **who talks to whom?** — :meth:`edges`, :meth:`fan_report`,
  :meth:`to_dot` / :meth:`to_json` for the report artifact the CI
  publishes.

The graph is *analytic*: nothing here runs per frame.  Bootstrap turns
it into per-device :class:`~repro.dataflow.routing.TypeRoutes` once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.dataflow.registry import lookup
from repro.i2o.errors import I2OError


@dataclass(frozen=True)
class DeviceNode:
    """One placed device instance, reduced to its dataflow contract."""

    name: str
    node: int
    device_class: str
    key: Any
    consumes: tuple[str, ...] = ()
    emits: tuple[str, ...] = ()


@dataclass(frozen=True)
class GraphEdge:
    """One emits→consumes edge between two placed devices."""

    src: str
    dst: str
    mtype: str
    feedback: bool = False


@dataclass(frozen=True)
class Diagnostic:
    """One named analysis finding."""

    code: str  # cycle | missing-provider | missing-consumer | ambiguous-fan-in
    message: str
    subjects: tuple[str, ...] = ()

    def render(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass
class _TypeUse:
    emitters: list[DeviceNode] = field(default_factory=list)
    consumers: list[DeviceNode] = field(default_factory=list)


class DataflowGraph:
    """The emits→consumes DAG over a set of placed devices."""

    def __init__(self, devices: Iterable[DeviceNode]) -> None:
        self.devices: dict[str, DeviceNode] = {}
        for dev in devices:
            if dev.name in self.devices:
                raise I2OError(f"duplicate device {dev.name!r} in graph")
            self.devices[dev.name] = dev
        self._uses: dict[str, _TypeUse] = {}
        for dev in self.devices.values():
            for tname in dev.emits:
                lookup(tname)  # unknown type names fail loudly here
                self._uses.setdefault(tname, _TypeUse()).emitters.append(dev)
            for tname in dev.consumes:
                lookup(tname)
                self._uses.setdefault(tname, _TypeUse()).consumers.append(dev)

    # -- structure ----------------------------------------------------------
    def consumers_of(self, tname: str) -> tuple[DeviceNode, ...]:
        use = self._uses.get(tname)
        return tuple(use.consumers) if use else ()

    def edges(self) -> tuple[GraphEdge, ...]:
        out: list[GraphEdge] = []
        for tname in sorted(self._uses):
            use = self._uses[tname]
            feedback = lookup(tname).feedback
            for src in use.emitters:
                for dst in use.consumers:
                    out.append(
                        GraphEdge(src.name, dst.name, tname, feedback)
                    )
        return tuple(out)

    def fan_in(self, name: str, tname: str) -> int:
        """How many emitters feed ``name`` with type ``tname`` — the
        divisor when bootstrap splits the consumer's queue capacity
        into per-edge credits."""
        return sum(
            1 for edge in self.edges()
            if edge.dst == name and edge.mtype == tname
        )

    # -- analysis -----------------------------------------------------------
    def analyze(self) -> list[Diagnostic]:
        """Every diagnostic for this topology (empty = clean)."""
        out: list[Diagnostic] = []
        for tname in sorted(self._uses):
            use = self._uses[tname]
            mtype = lookup(tname)
            if use.consumers and not use.emitters:
                names = ", ".join(sorted(d.name for d in use.consumers))
                out.append(Diagnostic(
                    "missing-provider",
                    f"message type {tname!r} is consumed by {names} "
                    f"but nothing emits it",
                    tuple(sorted(d.name for d in use.consumers)),
                ))
            if use.emitters and not use.consumers:
                names = ", ".join(sorted(d.name for d in use.emitters))
                out.append(Diagnostic(
                    "missing-consumer",
                    f"message type {tname!r} is emitted by {names} "
                    f"but nothing consumes it",
                    tuple(sorted(d.name for d in use.emitters)),
                ))
            if mtype.mode == "one" and len(use.consumers) > 1:
                names = ", ".join(sorted(d.name for d in use.consumers))
                out.append(Diagnostic(
                    "ambiguous-fan-in",
                    f"unicast message type {tname!r} has "
                    f"{len(use.consumers)} consumers ({names}); declare "
                    f"mode='keyed' or 'fanout', or remove the extras",
                    tuple(sorted(d.name for d in use.consumers)),
                ))
            if mtype.mode == "keyed":
                seen: dict[Any, str] = {}
                for dev in use.consumers:
                    if dev.key in seen:
                        out.append(Diagnostic(
                            "ambiguous-fan-in",
                            f"keyed message type {tname!r}: consumers "
                            f"{seen[dev.key]!r} and {dev.name!r} share "
                            f"key {dev.key!r}",
                            (seen[dev.key], dev.name),
                        ))
                    else:
                        seen[dev.key] = dev.name
        cycle = self._find_cycle()
        if cycle is not None:
            path = " -> ".join(cycle)
            out.append(Diagnostic(
                "cycle",
                f"forward dataflow contains a cycle: {path}; mark the "
                f"closing type feedback=True if the loop is intentional",
                tuple(cycle),
            ))
        return out

    def _find_cycle(self) -> list[str] | None:
        """DFS over forward (non-feedback) edges; returns the device
        path around the first cycle found, closed on itself."""
        adjacency: dict[str, list[str]] = {name: [] for name in self.devices}
        for edge in self.edges():
            if not edge.feedback and edge.src != edge.dst:
                adjacency[edge.src].append(edge.dst)
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {name: WHITE for name in self.devices}
        stack: list[str] = []

        def visit(name: str) -> list[str] | None:
            colour[name] = GREY
            stack.append(name)
            for succ in adjacency[name]:
                if colour[succ] == GREY:
                    start = stack.index(succ)
                    return stack[start:] + [succ]
                if colour[succ] == WHITE:
                    found = visit(succ)
                    if found is not None:
                        return found
            stack.pop()
            colour[name] = BLACK
            return None

        for name in sorted(self.devices):
            if colour[name] == WHITE:
                found = visit(name)
                if found is not None:
                    return found
        return None

    # -- reports ------------------------------------------------------------
    def fan_report(self) -> dict[str, Any]:
        """Per-device and per-type fan-in/fan-out counts."""
        per_device: dict[str, dict[str, int]] = {
            name: {"fan_in": 0, "fan_out": 0} for name in sorted(self.devices)
        }
        for edge in self.edges():
            per_device[edge.src]["fan_out"] += 1
            per_device[edge.dst]["fan_in"] += 1
        per_type = {
            tname: {
                "emitters": len(use.emitters),
                "consumers": len(use.consumers),
                "mode": lookup(tname).mode,
                "feedback": lookup(tname).feedback,
            }
            for tname, use in sorted(self._uses.items())
        }
        return {"devices": per_device, "types": per_type}

    def to_json(self) -> dict[str, Any]:
        return {
            "devices": [
                {
                    "name": dev.name,
                    "node": dev.node,
                    "class": dev.device_class,
                    "key": dev.key,
                    "consumes": list(dev.consumes),
                    "emits": list(dev.emits),
                }
                for dev in sorted(self.devices.values(),
                                  key=lambda d: (d.node, d.name))
            ],
            "edges": [
                {
                    "src": e.src, "dst": e.dst,
                    "type": e.mtype, "feedback": e.feedback,
                }
                for e in self.edges()
            ],
            "diagnostics": [
                {
                    "code": d.code, "message": d.message,
                    "subjects": list(d.subjects),
                }
                for d in self.analyze()
            ],
            "fan": self.fan_report(),
        }

    def describe(self) -> str:
        """Human-readable report: devices, edges, fan counts, findings."""
        lines = ["== devices =="]
        for dev in sorted(self.devices.values(),
                          key=lambda d: (d.node, d.name)):
            lines.append(
                f"  node{dev.node} {dev.name} [{dev.device_class}] "
                f"consumes={list(dev.consumes)} emits={list(dev.emits)}"
            )
        lines.append("== edges ==")
        for edge in self.edges():
            marker = " (feedback)" if edge.feedback else ""
            lines.append(f"  {edge.src} -> {edge.dst}  [{edge.mtype}]{marker}")
        lines.append("== fan-in/fan-out ==")
        for name, counts in self.fan_report()["devices"].items():
            lines.append(
                f"  {name}: in={counts['fan_in']} out={counts['fan_out']}"
            )
        diagnostics = self.analyze()
        lines.append(f"== diagnostics ({len(diagnostics)}) ==")
        lines.extend(f"  {diag.render()}" for diag in diagnostics)
        if not diagnostics:
            lines.append("  clean")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """GraphViz rendering: nodes clustered per processing node,
        forward edges solid, feedback edges dashed."""
        lines = ["digraph dataflow {", "  rankdir=LR;"]
        by_node: dict[int, list[DeviceNode]] = {}
        for dev in self.devices.values():
            by_node.setdefault(dev.node, []).append(dev)
        for node in sorted(by_node):
            lines.append(f"  subgraph cluster_node{node} {{")
            lines.append(f'    label="node {node}";')
            for dev in sorted(by_node[node], key=lambda d: d.name):
                lines.append(
                    f'    "{dev.name}" '
                    f'[label="{dev.name}\\n{dev.device_class}"];'
                )
            lines.append("  }")
        for edge in self.edges():
            style = ' [style=dashed, color=gray50' if edge.feedback else " ["
            sep = ", " if edge.feedback else ""
            lines.append(
                f'  "{edge.src}" -> "{edge.dst}"'
                f'{style}{sep}label="{edge.mtype}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def node_for_device(name: str, node: int, device: Any) -> DeviceNode | None:
    """A :class:`DeviceNode` for an installed Listener, or ``None`` if
    the device declares no dataflow contract at all."""
    consumes = tuple(m.name for m in getattr(device, "consumes", ()))
    emits = tuple(m.name for m in getattr(device, "emits", ()))
    if not consumes and not emits:
        return None
    return DeviceNode(
        name=name,
        node=node,
        device_class=getattr(device, "device_class", type(device).__name__),
        key=getattr(device, "dataflow_key", name),
        consumes=consumes,
        emits=emits,
    )


def graph_from_spec(spec: dict[str, Any]) -> DataflowGraph:
    """Build the graph from a bootstrap spec dict *without* building a
    cluster: classes are imported and instantiated (constructors only;
    nothing is installed), then reduced to their declarations.  This is
    the ``python -m repro.diag graph`` path — topology review without
    side effects."""
    from repro.config.bootstrap import spec_devices

    placed = (
        node_for_device(name, node, device)
        for node, name, device in spec_devices(spec)
    )
    return DataflowGraph(dn for dn in placed if dn is not None)
