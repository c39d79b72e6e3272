"""Canonical declarative topologies, shared by examples, tests, CI.

Each factory returns a plain bootstrap spec dict whose routes are
*derived* from the devices' consumes/emits declarations — zero
hand-wired proxies.  ``python -m repro.diag graph --builtin <name>``
renders/checks these, and the CI gate holds them at zero diagnostics.
"""

from __future__ import annotations

from typing import Any


def event_builder_spec(
    n_ru: int = 2,
    n_bu: int = 1,
    *,
    transport: str = "loopback",
    mean_fragment: int = 512,
    dataflow: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The 4-node (with defaults) event-builder acceptance topology:
    node 0 carries trigger + EVM, then one node per RU, one per BU."""
    nodes: dict[int, dict[str, Any]] = {
        0: {"devices": [
            {"class": "repro.daq.trigger.TriggerSource", "name": "trigger"},
            {"class": "repro.daq.manager.EventManager", "name": "evm"},
        ]},
    }
    for i in range(n_ru):
        nodes[1 + i] = {"devices": [
            {"class": "repro.daq.readout.ReadoutUnit", "name": f"ru{i}",
             "kwargs": {"ru_id": i, "mean_fragment": mean_fragment}},
        ]}
    for i in range(n_bu):
        nodes[1 + n_ru + i] = {"devices": [
            {"class": "repro.daq.builder.BuilderUnit", "name": f"bu{i}",
             "kwargs": {"bu_id": i}},
        ]}
    return {
        "transport": transport,
        "nodes": nodes,
        "dataflow": dict(dataflow) if dataflow is not None else {},
    }


def air_traffic_spec(
    n_radars: int = 2,
    *,
    transport: str = "loopback",
    dataflow: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Radars -> correlator -> console, routes from declarations."""
    nodes: dict[int, dict[str, Any]] = {
        0: {"devices": [
            {"class": "repro.atc.correlator.TrackCorrelator",
             "name": "correlator"},
            {"class": "repro.atc.console.AlertConsole", "name": "console"},
        ]},
    }
    for i in range(n_radars):
        nodes[1 + i] = {"devices": [
            {"class": "repro.atc.radar.RadarSource", "name": f"radar{i}",
             "kwargs": {"radar_id": i, "seed": i}},
        ]}
    return {
        "transport": transport,
        "nodes": nodes,
        "dataflow": dict(dataflow) if dataflow is not None else {},
    }


BUILTIN_SPECS = {
    "event-builder": event_builder_spec,
    "air-traffic": air_traffic_spec,
}
