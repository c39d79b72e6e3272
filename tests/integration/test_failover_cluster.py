"""Acceptance: a 4-node event builder survives a node partition.

Topology — node 0 runs the control plane (trigger, event manager, one
builder, discovery, heartbeat); nodes 1-3 each run one primary readout
unit plus a *replica* of a readout slice hosted elsewhere:

    node 1: ru0 (primary),  ru2b (replica of slice 2)
    node 2: ru1 (primary),  ru0b (replica of slice 0)
    node 3: ru2 (primary),  ru1b (replica of slice 1)

Node 3 is partitioned mid-run.  Supervision must notice within the
miss window, discovery must re-bind the ru2 proxy to the replica on
node 1, and the event manager's timeout machinery must re-launch the
stranded events through the re-bound route — finishing the run with
zero lost events.  Fragments are synthesised deterministically from
``(event_id, ru_id)`` so a replica with the same ``ru_id`` produces
byte-identical data.
"""

from __future__ import annotations

from repro.core.discovery import DiscoveryService
from repro.core.executive import Executive
from repro.core.liveness import HeartbeatService
from repro.core.states import PeerState
from repro.daq.builder import BuilderUnit
from repro.daq.manager import EventManager
from repro.daq.readout import ReadoutUnit
from repro.daq.trigger import TriggerSource
from repro.dataflow.wiring import wire_dataflow
from repro.transports.agent import PeerTransportAgent
from repro.transports.faulty import FaultPlan, FaultyLoopbackTransport
from repro.transports.loopback import LoopbackNetwork

from tests.conftest import ManualClock

INTERVAL_NS = 1_000
SUSPECT_AFTER = 2
DEAD_AFTER = 4
EVENT_TIMEOUT_NS = 20 * INTERVAL_NS


def _tick(cluster, clock, n=1):
    for _ in range(n):
        clock.t += INTERVAL_NS
        for _ in range(10_000):
            if not any(exe.step() for exe in cluster.values()):
                break


def _run_scenario():
    network = LoopbackNetwork()
    clock = ManualClock()
    cluster: dict[int, Executive] = {}
    faulty: dict[int, FaultyLoopbackTransport] = {}
    for node in range(4):
        exe = Executive(node=node, clock=clock)
        pt = FaultyLoopbackTransport(network, FaultPlan(), seed=node)
        PeerTransportAgent.attach(exe).register(pt, default=True)
        cluster[node] = exe
        faulty[node] = pt

    def pump_once():
        for exe in cluster.values():
            exe.step()

    # DAQ devices: primaries on 1..3, replicas shifted one node over.
    primaries = {
        "ru0": (1, ReadoutUnit("ru0", ru_id=0)),
        "ru1": (2, ReadoutUnit("ru1", ru_id=1)),
        "ru2": (3, ReadoutUnit("ru2", ru_id=2)),
    }
    standbys = {
        "ru2b": (1, ReadoutUnit("ru2b", ru_id=2)),
        "ru0b": (2, ReadoutUnit("ru0b", ru_id=0)),
        "ru1b": (3, ReadoutUnit("ru1b", ru_id=1)),
    }
    rus = primaries | standbys
    trigger = TriggerSource()
    evm = EventManager(
        event_timeout_ns=EVENT_TIMEOUT_NS, max_reassignments=5
    )
    builder = BuilderUnit(bu_id=0)
    discovery = DiscoveryService(nodes=[0, 1, 2, 3], pump=pump_once)
    for device in (trigger, evm, builder, discovery):
        cluster[0].install(device)

    # Control plane wiring: routes are derived while only the primary
    # slices exist; the standby replicas (which share their primary's
    # dataflow key) are installed afterwards, outside every route
    # table, for discovery to find.
    ru_tids = {}
    ru_id_of = {}  # (node, tid) -> ru_id, for replacement selection

    def install(group):
        for name, (node, device) in group.items():
            tid = cluster[node].install(device)
            ru_tids[name] = (node, tid)
            ru_id_of[(node, tid)] = device.ru_id

    install(primaries)
    wire_dataflow(cluster, backpressure=False)
    install(standbys)
    proxies = dict(evm.ru_tids)

    def pick_replica(dead_node, dead_tid, device_class, candidates):
        if device_class != "daq_readout":
            return None  # park anything we cannot substitute
        want = ru_id_of.get((dead_node, dead_tid))
        for node, tid in candidates:
            if ru_id_of.get((node, tid)) == want:
                return (node, tid)
        return None

    discovery.select_replacement = pick_replica
    for node in (1, 2, 3):
        discovery.refresh(node)

    # Full supervision mesh; only node 0 reacts (rebind policy).
    hbs: dict[int, HeartbeatService] = {}
    for node, exe in cluster.items():
        hb = HeartbeatService(
            name=f"hb{node}",
            discovery=discovery if node == 0 else None,
        )
        hb.parameters.update({
            "interval_ns": str(INTERVAL_NS),
            "suspect_after": str(SUSPECT_AFTER),
            "dead_after": str(DEAD_AFTER),
            "failover_policy": "rebind" if node == 0 else "none",
        })
        exe.install(hb)
        hbs[node] = hb
    for node, hb in hbs.items():
        for peer in cluster:
            if peer != node:
                hb.monitor(peer, cluster[node].routes.create_proxy(peer, hbs[peer].tid))
    for hb in hbs.values():
        hb.start()

    _tick(cluster, clock, 3)

    # Healthy baseline: four events flow through the primaries.
    trigger.fire_burst(4)
    _tick(cluster, clock, 4)
    assert evm.completed == 4

    # Partition node 3 and keep the beam on.
    faulty[3].partition()
    trigger.fire_burst(6)
    detected_after = None
    for elapsed in range(1, 61):
        _tick(cluster, clock, 1)
        if (
            detected_after is None
            and cluster[0].peers.state(3) is PeerState.DEAD
        ):
            detected_after = elapsed
        if detected_after is not None and evm.completed == 10:
            break

    survivors = {name: dev for name, (_, dev) in rus.items()}
    return {
        "cluster": cluster,
        "evm": evm,
        "discovery": discovery,
        "proxies": proxies,
        "ru_tids": ru_tids,
        "rus": survivors,
        "detected_after": detected_after,
        "fingerprint": (
            evm.completed,
            tuple(evm.completed_ids),
            tuple(evm.lost_events),
            evm.reassignments,
            cluster[0].routes.rebinds,
            cluster[0].routes.parks,
            detected_after,
            survivors["ru2b"].served,
        ),
    }


class TestFailoverCluster:
    def test_partition_survived_with_zero_lost_events(self):
        result = _run_scenario()
        cluster = result["cluster"]
        evm = result["evm"]

        # Detection inside the configured miss window.
        assert result["detected_after"] is not None
        assert result["detected_after"] <= DEAD_AFTER + 1

        # The ru2 proxy was re-bound to the surviving replica on node 1.
        route = cluster[0].routes.route_for(result["proxies"][2])
        assert (route.node, route.remote_tid) == result["ru_tids"]["ru2b"]
        assert not route.parked
        assert 3 in result["discovery"].quarantined

        # Every event completed; the stranded ones were re-launched
        # through the re-bound route by the timeout machinery.
        assert evm.completed == 10
        assert evm.lost_events == []
        assert sorted(evm.completed_ids) == list(range(1, 11))
        assert evm.reassignments >= 1
        assert result["rus"]["ru2b"].served > 0

        # Buffer hygiene on the survivors (node 3 is unreachable but
        # its pool must balance too — partition drops are accounted).
        for exe in cluster.values():
            exe.pool.check_conservation()
            assert exe.pool.in_flight == 0

    def test_scenario_is_deterministic(self):
        first = _run_scenario()["fingerprint"]
        second = _run_scenario()["fingerprint"]
        assert first == second
