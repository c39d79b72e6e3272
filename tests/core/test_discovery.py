"""Automatic peer discovery via executive LCT messages."""

from __future__ import annotations

import pytest

from repro.core.device import Listener
from repro.core.discovery import DiscoveryError, DiscoveryService
from repro.daq.builder import BuilderUnit
from repro.daq.manager import EventManager
from repro.daq.protocol import (
    MT_ALLOCATE,
    MT_CLEAR,
    MT_EVENT_DONE,
    MT_READOUT,
    MT_REQUEST_FRAGMENT,
    MT_TRIGGER,
)
from repro.daq.readout import ReadoutUnit
from repro.daq.trigger import TriggerSource

from tests.conftest import assert_no_leaks, make_loopback_cluster, pump


class Worker(Listener):
    device_class = "test_worker"


@pytest.fixture
def rig():
    cluster = make_loopback_cluster(4)

    def pump_once():
        for exe in cluster.values():
            exe.step()

    discovery = DiscoveryService(nodes=list(cluster), pump=pump_once)
    cluster[0].install(discovery)
    return cluster, discovery


class TestFindAll:
    def test_finds_instances_across_nodes(self, rig):
        cluster, discovery = rig
        tids = {node: cluster[node].install(Worker(name=f"w{node}"))
                for node in (1, 2, 3)}
        found = discovery.find_all("test_worker")
        assert set(found) == {(node, tid) for node, tid in tids.items()}
        # Each proxy actually routes to the right node.
        for (node, remote_tid), proxy in found.items():
            route = cluster[0].routes.route_for(proxy)
            assert route.node == node and route.remote_tid == remote_tid

    def test_includes_local_instances_as_real_tids(self, rig):
        cluster, discovery = rig
        local_tid = cluster[0].install(Worker(name="local"))
        found = discovery.find_all("test_worker")
        assert found[(0, local_tid)] == local_tid

    def test_empty_result_for_unknown_class(self, rig):
        _, discovery = rig
        assert discovery.find_all("unicorn") == {}

    def test_tables_cached(self, rig):
        cluster, discovery = rig
        cluster[2].install(Worker())
        discovery.find_all("test_worker")
        assert 2 in discovery.tables
        # Cached lookup works without refreshing.
        found = discovery.find_all("test_worker", refresh=False)
        assert len(found) == 1


class TestFindOne:
    def test_single_instance(self, rig):
        cluster, discovery = rig
        tid = cluster[2].install(Worker())
        (proxy,) = discovery.find_all("test_worker").values()
        assert cluster[0].routes.route_for(proxy).remote_tid == tid

    def test_dead_node_times_out(self, rig):
        _, discovery = rig
        # node 77 is unreachable: the failure reply ends the request
        with pytest.raises(DiscoveryError, match="did not answer"):
            discovery.refresh(77)


class TestDiscoveryDrivenDaq:
    def test_event_builder_wired_by_discovery(self):
        """The paper's §4 story end to end: devices find their peers
        through the executives, no hand-built proxy tables — the route
        tables are filled with what discovery answers, not derived."""
        cluster = make_loopback_cluster(5)

        def pump_once():
            for exe in cluster.values():
                exe.step()

        evm, trigger = EventManager(), TriggerSource()
        evm_tid = cluster[0].install(evm)
        cluster[0].install(trigger)
        trigger.connect_route(MT_TRIGGER, {"evm": evm_tid})
        for i in (0, 1):
            cluster[1 + i].install(ReadoutUnit(ru_id=i))
        for i in (0, 1):
            cluster[3 + i].install(BuilderUnit(bu_id=i))

        # The EVM's node discovers RUs and BUs by class.
        evm_disc = DiscoveryService(nodes=list(cluster), pump=pump_once)
        cluster[0].install(evm_disc)
        ru_proxies = evm_disc.find_all("daq_readout")
        bu_proxies = evm_disc.find_all("daq_builder")
        rus = {node: proxy for (node, _), proxy in sorted(ru_proxies.items())}
        bus = {node: proxy for (node, _), proxy in sorted(bu_proxies.items())}
        evm.connect_route(MT_READOUT, rus)
        evm.connect_route(MT_CLEAR, rus)
        evm.connect_route(MT_ALLOCATE, bus)
        evm.on_dataflow_connected()
        # Each BU node discovers the EVM and the RUs.
        for node in (3, 4):
            disc = DiscoveryService(nodes=list(cluster), pump=pump_once)
            cluster[node].install(disc)
            bu = next(
                dev for dev in cluster[node].devices().values()
                if dev.device_class == "daq_builder"
            )
            (evm_proxy,) = disc.find_all("daq_eventmanager").values()
            bu.connect_route(MT_EVENT_DONE, {"evm": evm_proxy})
            bu.connect_route(
                MT_REQUEST_FRAGMENT,
                {n: p for (n, _), p in sorted(disc.find_all(
                    "daq_readout").items())},
            )
        trigger.fire_burst(8)
        pump(cluster)
        assert evm.completed == 8
        assert_no_leaks(cluster)
