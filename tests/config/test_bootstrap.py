"""Declarative cluster bootstrap."""

from __future__ import annotations

import pytest

from repro.config.bootstrap import BootstrapError, bootstrap, sections
from repro.core.simnode import CostLedger
from repro.dataflow.examples import event_builder_spec
from repro.dataflow.graph import graph_from_spec
from repro.hw.clock import SimClock
from repro.sim.kernel import Simulator

from tests.conftest import ManualClock, assert_no_leaks

ECHO = "repro.bench.devices.EchoDevice"
PING = "repro.bench.devices.PingDevice"


def two_node_spec(transport="loopback"):
    return {
        "transport": transport,
        "nodes": {
            0: {"devices": [{"class": PING, "name": "ping"}]},
            1: {"devices": [{"class": ECHO, "name": "echo"}]},
        },
    }


def after_ping(entry):
    """One node whose second device entry is ``entry``."""
    return {0: {"devices": [{"class": PING}, entry]}}


def node_spec(node):
    """Nodes 0 and ``node`` on a loopback wire, both recording (trace
    ids carry 12 bits of their root node)."""
    return {
        "transport": "loopback",
        "observability": {"dispatch_budget_ns": 1_000_000},
        "nodes": {0: {"devices": []}, node: {"devices": []}},
    }


def evb_spec(node, index, **kwargs):
    """The 2 x 2 event builder with ``kwargs`` passed to one device."""
    spec = event_builder_spec(2, 2)
    spec["nodes"][node]["devices"][index].setdefault("kwargs", {}).update(kwargs)
    return spec


class TestBuild:
    def test_builds_executives_and_devices(self):
        cluster = bootstrap(two_node_spec())
        assert sorted(cluster.executives) == [0, 1]
        assert cluster.device("echo").device_class == "bench_echo"
        assert cluster.node_of("echo") == 1
        assert cluster.tid("ping") >= 16

    def test_kwargs_passed_to_constructor(self):
        spec = {
            "nodes": {
                0: {"devices": [{
                    "class": "repro.daq.readout.ReadoutUnit",
                    "name": "ru7",
                    "kwargs": {"ru_id": 7},
                }]},
            },
        }
        cluster = bootstrap(spec)
        assert cluster.device("ru7").ru_id == 7

    def test_params_applied(self):
        spec = two_node_spec()
        spec["nodes"][1]["devices"][0]["params"] = {"colour": "blue"}
        cluster = bootstrap(spec)
        assert cluster.device("echo").parameters["colour"] == "blue"

    def test_duplicate_names_rejected(self):
        spec = two_node_spec()
        spec["nodes"][0]["devices"].append({"class": ECHO, "name": "echo"})
        with pytest.raises(BootstrapError, match="duplicate"):
            bootstrap(spec)

    def test_bad_class_paths(self):
        for path in ("NotAPath", "repro.no.such.Module",
                     "repro.bench.devices.Missing",
                     "repro.i2o.frame.Frame"):
            spec = {"nodes": {0: {"devices": [{"class": path}]}}}
            with pytest.raises(BootstrapError):
                bootstrap(spec)

    def test_empty_spec_rejected(self):
        with pytest.raises(BootstrapError):
            bootstrap({})
        with pytest.raises(BootstrapError):
            bootstrap({"nodes": {}})

    @pytest.mark.parametrize("nodes, named", [
        ({0: [{"class": ECHO}]}, "node 0 spec must be a mapping, got list"),
        ({"a": {"devices": []}}, "node id 'a' is not an integer"),
        (after_ping({"name": "echo"}), "node 0 device 1: entry needs a 'class'"),
        (after_ping({"class": ECHO, "kwargs": ["x"]}),
         "node 0 device 1: kwargs must be a mapping, got list"),
        (after_ping({"class": ECHO, "kwargs": {"colour": "blue"}}),
         "node 0 device 1: cannot construct .*colour"),
        (after_ping({"class": ECHO, "params": ["x"]}),
         "node 0 device 1: params must be a mapping, got list"),
        ({0: {"devices": 5}}, "node 0: devices must be a list, got int"),
        (after_ping(ECHO), "node 0 device 1: entry must be a mapping, got str"),
        ({1: {}, "1": {}}, "node 1 is given twice"),
        (after_ping({"class": ECHO, "name": 5}),
         "node 0 device 1: name must be a string, got int"),
        (after_ping({"class": "repro.daq.manager.EventManager",
                     "kwargs": {"event_timeout_ns": -1}}),
         "node 0 device 1: cannot construct repro.daq.manager.EventManager: "
         "event_timeout_ns must be an int >= 0, got -1"),
    ], ids=["node-list", "node-id", "no-class", "kwargs-list", "unknown-kwarg",
            "params-list", "devices-int", "entry-string", "node-twice",
            "name-int", "ctor-refusal"])
    def test_malformed_entry_names_node_and_index(self, nodes, named):
        for build in (bootstrap, graph_from_spec):
            with pytest.raises(BootstrapError, match=named):
                build({"nodes": nodes})

    def test_unknown_transport(self):
        with pytest.raises(BootstrapError, match="unknown transport"):
            bootstrap(two_node_spec(transport="carrier-pigeon"))

    @pytest.mark.parametrize("transport, faults, named", [
        ("simgm", None, "transport 'simgm' needs clock=SimClock"),
        ("queue-mesh", {"drop_rate": 0.1},
         "faults section: needs transport 'loopback', got 'queue-mesh'"),
        ("loopback", {"drop_rate": 1.5},
         "bad faults section: drop_rate: 1.5 above maximum 1.0"),
        ("loopback", {"drop_rate": float("nan")},
         "bad faults section: drop_rate: cannot parse 'nan' as float"),
    ], ids=["simgm-wall-clock", "faults-queue-mesh", "drop-rate-range",
            "drop-rate-nan"])
    def test_boot_surface_refusals(self, transport, faults, named):
        spec = two_node_spec(transport)
        if faults is not None:
            spec["faults"] = faults
        with pytest.raises(BootstrapError, match=named):
            bootstrap(spec)

    @pytest.mark.parametrize("spec, named", [
        (node_spec(4096), "node 4096: node id must be an int in 0..4095"),
        (node_spec(-1), "node -1: node id must be an int in 0..4095"),
        *((evb_spec(1, 0, ru_id=bad), "ru_id must be an int in 0..4294967295")
          for bad in ("x", 0.5, -1, 2**40)),
        (evb_spec(3, 0, bu_id="x"), "bu_id must be an int >= 0"),
        (evb_spec(0, 1, event_timeout_ns=float("nan")),
         "event_timeout_ns must be an int >= 0"),
        (evb_spec(0, 1, max_in_flight=float("nan")),
         "max_in_flight must be an int >= 1"),
        (evb_spec(0, 1, max_in_flight=2.5), "max_in_flight must be an int >= 1"),
        *((evb_spec(0, 1, max_reassignments=bad),
           "max_reassignments must be an int >= 0")
          for bad in ("3", float("nan"), -1)),
    ], ids=["node-4096", "node-negative", "ru-id-str", "ru-id-float",
            "ru-id-negative", "ru-id-above-u32", "bu-id-str", "evm-timeout-nan",
            "evm-in-flight-nan", "evm-in-flight-float", "evm-reassign-str",
            "evm-reassign-nan", "evm-reassign-negative"])
    def test_ids_the_wire_and_ring_cannot_carry_are_refused(self, spec, named):
        with pytest.raises(BootstrapError, match=named):
            bootstrap(spec)


class TestOperation:
    @pytest.mark.parametrize("transport", ["loopback", "queue-mesh"])
    def test_ping_pong_over_built_cluster(self, transport):
        cluster = bootstrap(two_node_spec(transport))
        ping = cluster.device("ping")
        ping.configure(cluster.proxy(0, "echo"), 128, 5)
        ping.kick()
        cluster.pump()
        assert len(ping.rtts_ns) == 5
        assert_no_leaks(cluster.executives)

    def test_sim_clock_hosts_every_executive_on_the_gm_fabric(self):
        sim = Simulator()
        cluster = bootstrap(two_node_spec("simgm"), clock=SimClock(sim))
        for exe in cluster.executives.values():
            assert isinstance(exe.flightrec, CostLedger)
        ping = cluster.device("ping")
        ping.configure(cluster.proxy(0, "echo"), 128, 3)
        sim.at(0, ping.kick)
        sim.run()
        assert len(ping.rtts_ns) == 3 and min(ping.rtts_ns) > 0
        (gm,) = cluster.executive(0).pta.transports()
        assert gm.fabric.stats.messages == 6

    @pytest.mark.parametrize("transport", ["loopback", "queue-mesh"])
    def test_rejoined_node_answers_at_the_same_tid(self, transport):
        cluster = bootstrap(two_node_spec(transport))
        dead, tid = cluster.executive(1), cluster.tid("echo")
        cluster.kill(1)
        cluster.rejoin(1)
        assert cluster.executive(1) is not dead
        assert cluster.tid("echo") == tid
        assert cluster.device("echo").executive is cluster.executive(1)
        assert cluster.incarnations == {0: 1, 1: 2}
        ping = cluster.device("ping")
        ping.configure(cluster.proxy(0, "echo"), 128, 3)
        ping.kick()
        cluster.pump()
        assert len(ping.rtts_ns) == 3
        assert_no_leaks({**cluster.executives, "dead": dead})

    def test_rejoined_node_is_readmitted_by_supervision(self):
        clock = ManualClock()
        cluster = bootstrap({
            "supervision": {"interval_ns": 1000, "dead_after": 3,
                            "rejoin_after": 2},
            "nodes": {node: {"devices": []} for node in range(3)},
        }, clock=clock)
        cluster.start_supervision()

        def states(ticks):
            for _ in range(ticks):
                clock.t += 1000
                cluster.pump()
            return [cluster.executive(0).peers.state(n).name for n in (1, 2)]

        cluster.kill(1)
        assert states(10) == ["DEAD", "ALIVE"]
        cluster.rejoin(1)
        cluster.heartbeats[1].start()
        assert states(10) == ["ALIVE", "ALIVE"]

    def test_proxy_unknown_name(self):
        cluster = bootstrap(two_node_spec())
        with pytest.raises(BootstrapError, match="no device named"):
            cluster.proxy(0, "ghost")

    def test_full_daq_from_spec(self):
        spec = {
            "nodes": {
                0: {"devices": [
                    {"class": "repro.daq.manager.EventManager",
                     "name": "evm"},
                    {"class": "repro.daq.trigger.TriggerSource",
                     "name": "trigger"},
                ]},
                1: {"devices": [
                    {"class": "repro.daq.readout.ReadoutUnit", "name": "ru0",
                     "kwargs": {"ru_id": 0}},
                ]},
                2: {"devices": [
                    {"class": "repro.daq.builder.BuilderUnit", "name": "bu0",
                     "kwargs": {"bu_id": 0}},
                ]},
            },
            "dataflow": {},
        }
        cluster = bootstrap(spec)
        evm = cluster.device("evm")
        trigger = cluster.device("trigger")
        trigger.fire_burst(4)
        cluster.pump()
        assert evm.completed == 4
        assert_no_leaks(cluster.executives)


class TestSpecSurface:
    def test_sections_and_keys(self):
        """Every settable spec key; a new knob is an edit here."""
        assert {
            name: sorted(spec.name for spec in schema)
            for name, schema, _ in sections()
        } == {
            "faults": ["drop_rate", "duplicate_rate", "seed"],
            "supervision": ["dead_after", "failover_policy", "interval_ns",
                            "rejoin_after", "suspect_after"],
            "observability": ["capacity", "dir", "dispatch_budget_ns", "hz"],
            "dataflow": ["backpressure", "edge_credits"],
            "durability": ["dir", "fsync"],
        }

    @pytest.mark.parametrize("section, key, value", [
        ("durability", "journals", False),
        ("durability", "snapshots", False),
        ("durability", "flush_every", 4),
        ("durability", "compact_min_records", 8),
        ("durability", "compact_live_ratio", 0.25),
        ("dataflow", "park_limit", 16),
        ("dataflow", "strict", False),
        ("supervision", "policy", "park"),
    ])
    def test_retired_key_is_refused_by_name(self, section, key, value):
        spec = two_node_spec()
        spec[section] = {key: value}
        with pytest.raises(
            BootstrapError, match=rf"unknown {section} keys \['{key}'\]"
        ):
            bootstrap(spec)
