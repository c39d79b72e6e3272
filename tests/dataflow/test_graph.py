"""Static DAG analysis: named diagnostics, reports, spec loading."""

from __future__ import annotations

import pytest

from repro.dataflow.graph import (
    DataflowGraph,
    DeviceNode,
    graph_from_spec,
    node_for_device,
)
from repro.i2o.errors import I2OError
from tests.dataflow import fixtures  # registers the fix.* vocabulary


def _codes(graph):
    return sorted(d.code for d in graph.analyze())


class TestDiagnostics:
    def test_clean_event_builder_has_no_diagnostics(self):
        from repro.dataflow.examples import event_builder_spec

        graph = graph_from_spec(event_builder_spec(2, 2))
        assert graph.analyze() == []

    def test_cycle_is_named_with_its_path(self):
        graph = graph_from_spec(fixtures.cycle_spec())
        (diag,) = [d for d in graph.analyze() if d.code == "cycle"]
        # The path closes on itself and walks all three corners.
        assert diag.subjects[0] == diag.subjects[-1]
        assert set(diag.subjects) == {"a", "b", "c"}
        assert "a" in diag.message and "->" in diag.message

    def test_feedback_type_exempts_the_cycle(self):
        # The event builder's trigger->evm->bu->evm loop is legal
        # because EVENT_DONE is declared feedback=True.
        from repro.dataflow.examples import event_builder_spec

        graph = graph_from_spec(event_builder_spec(1, 1))
        assert _codes(graph) == []
        feedback = [e for e in graph.edges() if e.feedback]
        assert [(e.src, e.dst) for e in feedback] == [("bu0", "evm")]

    def test_missing_consumer_names_the_emitter(self):
        graph = graph_from_spec(fixtures.missing_consumer_spec())
        (diag,) = graph.analyze()
        assert diag.code == "missing-consumer"
        assert "orphan-source" in diag.message
        assert "fix.orphan" in diag.message

    def test_missing_provider_names_the_consumer(self):
        graph = graph_from_spec(fixtures.missing_provider_spec())
        (diag,) = graph.analyze()
        assert diag.code == "missing-provider"
        assert "unfed" in diag.message
        assert "fix.unfed" in diag.message

    def test_unicast_fan_in_is_ambiguous(self):
        graph = DataflowGraph([
            DeviceNode("src", 0, "fixture", "src", emits=("fix.ab",)),
            DeviceNode("dst1", 0, "fixture", "dst1", consumes=("fix.ab",)),
            DeviceNode("dst2", 1, "fixture", "dst2", consumes=("fix.ab",)),
        ])
        diags = [d for d in graph.analyze() if d.code == "ambiguous-fan-in"]
        assert len(diags) == 1
        assert set(diags[0].subjects) == {"dst1", "dst2"}

    def test_keyed_consumers_sharing_a_key_are_ambiguous(self):
        from repro.daq.protocol import MT_ALLOCATE

        graph = DataflowGraph([
            DeviceNode("evm", 0, "fixture", "evm",
                       emits=(MT_ALLOCATE.name,)),
            DeviceNode("bu0", 1, "fixture", 0,
                       consumes=(MT_ALLOCATE.name,)),
            DeviceNode("bu0b", 2, "fixture", 0,
                       consumes=(MT_ALLOCATE.name,)),
        ])
        diags = [d for d in graph.analyze() if d.code == "ambiguous-fan-in"]
        assert len(diags) == 1
        assert set(diags[0].subjects) == {"bu0", "bu0b"}

    def test_unknown_type_name_fails_at_construction(self):
        with pytest.raises(I2OError, match="unknown message type"):
            DataflowGraph([
                DeviceNode("x", 0, "fixture", "x", emits=("test.no-such",)),
            ])

    def test_duplicate_device_name_rejected(self):
        node = DeviceNode("x", 0, "fixture", "x", emits=("fix.ab",))
        with pytest.raises(I2OError, match="duplicate device 'x'"):
            DataflowGraph([node, node])


class TestReports:
    @pytest.fixture
    def graph(self):
        from repro.dataflow.examples import event_builder_spec

        return graph_from_spec(event_builder_spec(2, 1))

    def test_fan_in_counts_emitters_per_consumer_type(self, graph):
        # Both BUs gone: each RU hears daq.request-fragment from bu0 only.
        assert graph.fan_in("ru0", "daq.request-fragment") == 1
        assert graph.fan_in("evm", "daq.trigger") == 1

    def test_dot_clusters_by_node_and_dashes_feedback(self, graph):
        dot = graph.to_dot()
        assert "subgraph cluster_node0" in dot
        assert '"trigger" -> "evm"' in dot
        assert "style=dashed" in dot  # the EVENT_DONE feedback edge

    def test_json_report_is_complete_and_serialisable(self, graph):
        import json

        report = graph.to_json()
        assert {d["name"] for d in report["devices"]} == {
            "trigger", "evm", "ru0", "ru1", "bu0",
        }
        assert report["diagnostics"] == []
        assert report["fan"]["types"]["daq.readout"]["mode"] == "fanout"
        json.dumps(report)  # must round-trip

    def test_fan_report_counts_edges(self, graph):
        fan = graph.fan_report()
        # 2 readout, 2 clear, 1 allocate, 1 abandon
        assert fan["devices"]["evm"]["fan_out"] == 6
        assert fan["devices"]["ru0"]["fan_in"] == 3


class TestNodeForDevice:
    def test_undeclared_device_maps_to_none(self):
        from repro.core.device import Listener

        class Mute(Listener):
            device_class = "mute"

        assert node_for_device("m", 0, Mute("m")) is None

    def test_dataflow_key_defaults_to_name(self):
        from repro.atc.console import AlertConsole

        dn = node_for_device("console", 3, AlertConsole("console"))
        assert dn.key == "console"
        assert dn.node == 3

    def test_keyed_device_exposes_its_key(self):
        from repro.daq.builder import BuilderUnit

        dn = node_for_device("bu7", 1, BuilderUnit(bu_id=7))
        assert dn.key == 7
