"""Bootstrap-derived routing: declarations in, route tables out."""

from __future__ import annotations

import pytest

from repro.config.bootstrap import BootstrapError, bootstrap
from repro.dataflow.examples import air_traffic_spec, event_builder_spec
from tests.dataflow import fixtures


class TestDerivedEventBuilder:
    """The acceptance topology: 4 nodes, zero hand-wired routes."""

    @pytest.fixture
    def cluster(self):
        return bootstrap(event_builder_spec(2, 1))

    def test_routes_exist_without_any_connect_call(self, cluster):
        evm = cluster.device("evm")
        assert sorted(evm.ru_tids) == [0, 1]
        assert sorted(evm.bu_tids) == [0]
        bu = cluster.device("bu0")
        assert sorted(bu.ru_tids) == [0, 1]
        assert bu.evm_tid is not None
        assert cluster.device("trigger").dataflow_targets("daq.trigger")

    def test_pipeline_builds_events_end_to_end(self, cluster):
        trigger = cluster.device("trigger")
        for _ in range(10):
            trigger.fire()
        cluster.pump()
        assert cluster.device("evm").export_counters()["completed"] == 10
        assert cluster.device("bu0").export_counters()["built"] == 10

    def test_round_robin_rebuilt_from_derived_routes(self):
        cluster = bootstrap(event_builder_spec(1, 2))
        trigger = cluster.device("trigger")
        for _ in range(8):
            trigger.fire()
        cluster.pump()
        built = [cluster.device(f"bu{i}").export_counters()["built"]
                 for i in range(2)]
        assert built == [4, 4]

    def test_graph_and_ledger_are_exposed(self, cluster):
        assert cluster.dataflow_graph.analyze() == []
        assert cluster.dataflow_ledger is not None
        for exe in cluster.executives.values():
            assert exe.dataflow is cluster.dataflow_ledger
            assert exe.dataflow_outbox is not None

    def test_edge_capacity_comes_from_consumer_queue_capacity(self, cluster):
        # ReadoutUnit declares queue_capacity=64; each RU hears
        # daq.readout from exactly one emitter, so the edge gets 64.
        readout_edges = list(
            cluster.device("evm").routes_for("daq.readout").edges.values()
        )
        assert len(readout_edges) == 2
        assert all(e.capacity == 64 for e in readout_edges)

    def test_air_traffic_boots_from_declarations(self):
        cluster = bootstrap(air_traffic_spec(2))
        correlator = cluster.device("correlator")
        assert correlator.console_tid is not None
        for i in range(2):
            assert cluster.device(f"radar{i}").correlator_tid is not None


class TestStrictAnalysis:
    def test_seeded_cycle_is_rejected_by_name(self):
        with pytest.raises(BootstrapError, match="cycle") as excinfo:
            bootstrap(fixtures.cycle_spec())
        assert "a -> " in str(excinfo.value) or "-> a" in str(excinfo.value)

    def test_missing_consumer_is_rejected_by_name(self):
        with pytest.raises(BootstrapError, match="missing-consumer"):
            bootstrap(fixtures.missing_consumer_spec())

    def test_missing_provider_is_rejected_by_name(self):
        with pytest.raises(BootstrapError, match="missing-provider"):
            bootstrap(fixtures.missing_provider_spec())

    def test_backpressure_off_wires_uncapped_routes(self):
        spec = event_builder_spec(1, 1)
        spec["dataflow"]["backpressure"] = False
        cluster = bootstrap(spec)
        evm = cluster.device("evm")
        assert evm.routes_for("daq.readout").edges is None
        assert cluster.dataflow_ledger.credits_available(0) == 0
        trigger = cluster.device("trigger")
        for _ in range(5):
            trigger.fire()
        cluster.pump()
        assert cluster.device("bu0").export_counters()["built"] == 5


class TestSpecValidation:
    def test_unknown_top_level_key_is_named(self):
        spec = event_builder_spec(1, 1)
        spec["dataflwo"] = {}
        with pytest.raises(BootstrapError, match="dataflwo"):
            bootstrap(spec)

    def test_bad_dataflow_value_is_named(self):
        spec = event_builder_spec(1, 1)
        spec["dataflow"] = {"edge_credits": 0}
        with pytest.raises(BootstrapError, match="edge_credits"):
            bootstrap(spec)

    def test_unknown_dataflow_key_is_named(self):
        spec = event_builder_spec(1, 1)
        spec["dataflow"] = {"credit_limit": 9}
        with pytest.raises(BootstrapError, match="credit_limit"):
            bootstrap(spec)

    @pytest.mark.parametrize("section, conf, named", [
        # removed with the tracer's span ring: now an unknown key
        ("observability", {"trace_capacity": 512}, "unknown .*trace_capacity"),
        ("observability", {"tracing": "maybe"}, "tracing"),
        ("observability", {"sweep_interval_ns": -1}, "sweep_interval_ns"),
        ("observability", {"colector": True}, "colector"),
        ("observability", {"capacity": "maybe"}, "capacity"),
        ("observability", {"dispatch_budget_ns": -1}, "dispatch_budget_ns"),
        ("supervision", {"interval_ns": 0}, "interval_ns"),
        ("supervision", {"dead_after": "soon"}, "dead_after"),
        ("supervision", {"failover_policy": "panic"}, "failover_policy"),
    ])
    def test_bad_value_in_any_section_names_section_and_key(
        self, section, conf, named
    ):
        spec = event_builder_spec(1, 1)
        spec[section] = conf
        with pytest.raises(
            BootstrapError, match=f"bad {section} section: .*{named}"
        ):
            bootstrap(spec)

    def test_non_mapping_dataflow_section_rejected(self):
        spec = event_builder_spec(1, 1)
        spec["dataflow"] = True
        with pytest.raises(BootstrapError, match="mapping"):
            bootstrap(spec)

    def test_duplicate_device_name_is_named(self):
        spec = {
            "nodes": {
                0: {"devices": [
                    {"class": "repro.daq.trigger.TriggerSource",
                     "name": "twin"},
                ]},
                1: {"devices": [
                    {"class": "repro.daq.trigger.TriggerSource",
                     "name": "twin"},
                ]},
            },
        }
        with pytest.raises(BootstrapError, match="duplicate.*'twin'"):
            bootstrap(spec)

    def test_unknown_device_lookup_lists_available(self):
        from repro.config.bootstrap import UnknownDeviceError

        cluster = bootstrap(event_builder_spec(1, 1))
        with pytest.raises(UnknownDeviceError) as excinfo:
            cluster.device("ru9")
        message = str(excinfo.value)
        assert "no device named 'ru9'" in message
        for name in ("trigger", "evm", "ru0", "bu0"):
            assert name in message
        # It is also a KeyError, for mapping-style callers.
        assert isinstance(excinfo.value, KeyError)
