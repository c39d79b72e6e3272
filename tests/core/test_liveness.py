"""Heartbeat liveness, peer tables, and the failover cascade."""

from __future__ import annotations

import pytest

from repro.core.device import Listener
from repro.core.discovery import DiscoveryService
from repro.core.executive import Executive
from repro.core.liveness import HeartbeatService, PeerTable
from repro.core.reliable import ReliableEndpoint
from repro.core.states import PeerState
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.transports.agent import PeerTransportAgent
from repro.transports.faulty import FaultPlan, FaultyLoopbackTransport
from repro.transports.loopback import LoopbackNetwork

from tests.conftest import ManualClock


class TestPeerTable:
    def test_peers_start_alive(self):
        table = PeerTable()
        table.watch(1)
        assert table.state(1) is PeerState.ALIVE
        assert table.dead_nodes() == []

    def test_unwatched_peer_raises(self):
        with pytest.raises(I2OError, match="not watched"):
            PeerTable().state(9)

    def test_miss_progression_alive_suspect_dead(self):
        table = PeerTable(suspect_after=2, dead_after=4)
        table.watch(1)
        assert table.interval_missed(1) is PeerState.ALIVE
        assert table.interval_missed(1) is PeerState.SUSPECT
        assert table.interval_missed(1) is PeerState.SUSPECT
        assert table.interval_missed(1) is PeerState.DEAD
        assert table.dead_nodes() == [1]
        assert table.deaths == 1 and table.suspicions == 1

    def test_beat_clears_suspicion(self):
        table = PeerTable(suspect_after=2, dead_after=4)
        table.watch(1)
        table.interval_missed(1)
        table.interval_missed(1)
        assert table.state(1) is PeerState.SUSPECT
        table.heartbeat_seen(1)
        assert table.state(1) is PeerState.ALIVE
        assert table.watch(1).misses == 0

    def test_callbacks_fire_once_per_transition(self):
        table = PeerTable(suspect_after=1, dead_after=2)
        dead, suspect = [], []
        table.on_dead(dead.append)
        table.on_suspect(suspect.append)
        table.watch(1)
        for _ in range(5):
            table.interval_missed(1)
        assert dead == [1] and suspect == [1]

    def test_rejoin_needs_consecutive_beats(self):
        table = PeerTable(suspect_after=1, dead_after=2, rejoin_after=3)
        rejoined = []
        table.on_alive(rejoined.append)
        table.watch(1)
        table.interval_missed(1)
        table.interval_missed(1)
        assert table.state(1) is PeerState.DEAD
        table.heartbeat_seen(1)
        table.heartbeat_seen(1)
        assert table.state(1) is PeerState.DEAD  # backoff not yet served
        table.heartbeat_seen(1)
        assert table.state(1) is PeerState.ALIVE
        assert rejoined == [1] and table.rejoins == 1

    def test_miss_resets_rejoin_backoff(self):
        table = PeerTable(suspect_after=1, dead_after=2, rejoin_after=2)
        table.watch(1)
        table.interval_missed(1)
        table.interval_missed(1)
        table.heartbeat_seen(1)
        table.interval_missed(1)  # flap: backoff starts over
        table.heartbeat_seen(1)
        assert table.state(1) is PeerState.DEAD
        table.heartbeat_seen(1)
        assert table.state(1) is PeerState.ALIVE

    def test_threshold_validation(self):
        with pytest.raises(I2OError, match="must exceed"):
            PeerTable().configure(suspect_after=3, dead_after=3)
        with pytest.raises(I2OError, match=">= 1"):
            PeerTable().configure(suspect_after=0, dead_after=4)

    def test_counters(self):
        table = PeerTable(suspect_after=1, dead_after=2)
        table.watch(1)
        table.watch(2)
        table.interval_missed(2)
        table.interval_missed(2)
        counters = table.export_counters()
        assert counters["watched"] == 2
        assert counters["alive"] == 1
        assert counters["dead"] == 1


def build_supervised(
    n_nodes: int = 3,
    *,
    interval_ns: int = 1_000,
    suspect_after: int = 2,
    dead_after: int = 4,
    rejoin_after: int = 3,
    policy: str = "rebind",
    discovery_on: int | None = None,
):
    """N executives on a faulty loopback (clean plan) with a full mesh
    of heartbeat services, all driven by one manual clock."""
    network = LoopbackNetwork()
    clock = ManualClock()
    cluster: dict[int, Executive] = {}
    faulty: dict[int, FaultyLoopbackTransport] = {}
    for node in range(n_nodes):
        exe = Executive(node=node, clock=clock)
        pt = FaultyLoopbackTransport(network, FaultPlan(), seed=node)
        PeerTransportAgent.attach(exe).register(pt, default=True)
        cluster[node] = exe
        faulty[node] = pt

    def pump_once():
        for exe in cluster.values():
            exe.step()

    discovery = None
    if discovery_on is not None:
        discovery = DiscoveryService(nodes=list(cluster), pump=pump_once)
        cluster[discovery_on].install(discovery)

    hbs: dict[int, HeartbeatService] = {}
    for node, exe in cluster.items():
        hb = HeartbeatService(
            name=f"hb{node}",
            discovery=discovery if node == discovery_on else None,
        )
        hb.parameters.update({
            "interval_ns": str(interval_ns),
            "suspect_after": str(suspect_after),
            "dead_after": str(dead_after),
            "rejoin_after": str(rejoin_after),
            "failover_policy": policy,
        })
        exe.install(hb)
        hbs[node] = hb
    for node, hb in hbs.items():
        for peer in cluster:
            if peer != node:
                hb.monitor(peer, cluster[node].create_proxy(peer, hbs[peer].tid))
    for hb in hbs.values():
        hb.start()
    return cluster, clock, hbs, faulty, discovery


def tick(cluster, clock, n: int = 1, step_ns: int = 1_000) -> None:
    for _ in range(n):
        clock.t += step_ns
        for _ in range(10_000):
            if not any(exe.step() for exe in cluster.values()):
                break


class TestHeartbeatService:
    def test_healthy_cluster_stays_alive(self):
        cluster, clock, hbs, _, _ = build_supervised(3)
        tick(cluster, clock, 10)
        for node, exe in cluster.items():
            assert exe.peers.nodes() == [n for n in cluster if n != node]
            assert exe.peers.dead_nodes() == []
        assert hbs[0].beats_received > 0
        assert cluster[0].metrics.value("hb_beats_received_total") > 0

    def test_partitioned_peer_detected_within_miss_window(self):
        cluster, clock, hbs, faulty, _ = build_supervised(
            3, suspect_after=2, dead_after=4
        )
        tick(cluster, clock, 3)
        faulty[2].partition()  # node 2 dies
        detected_at = None
        for elapsed in range(1, 10):
            tick(cluster, clock, 1)
            if cluster[0].peers.state(2) is PeerState.DEAD:
                detected_at = elapsed
                break
        assert detected_at is not None, "death never detected"
        assert detected_at <= 4 + 1  # dead_after intervals (+1 slack)
        assert cluster[0].peers.state(1) is PeerState.ALIVE
        # The suspect phase was traversed on the way down.
        assert cluster[0].peers.suspicions >= 1
        assert hbs[0].peer_deaths == 1

    def test_dead_peer_rejoins_after_backoff(self):
        cluster, clock, hbs, faulty, _ = build_supervised(
            2, suspect_after=2, dead_after=3, rejoin_after=3
        )
        tick(cluster, clock, 2)
        faulty[1].partition()
        tick(cluster, clock, 6)
        assert cluster[0].peers.state(1) is PeerState.DEAD
        faulty[1].heal()
        tick(cluster, clock, 2)
        assert cluster[0].peers.state(1) is PeerState.DEAD  # backoff
        tick(cluster, clock, 3)
        assert cluster[0].peers.state(1) is PeerState.ALIVE
        assert hbs[0].peer_rejoins == 1
        assert cluster[0].metrics.value("peer_rejoins_total") == 1

    def test_stop_disarms_timer(self):
        cluster, clock, hbs, _, _ = build_supervised(2)
        assert len(cluster[0].timers) == 1
        hbs[0].stop()
        assert len(cluster[0].timers) == 0
        tick(cluster, clock, 5)
        # Stopped service accrues no evidence; peers stay as they were.
        assert cluster[0].peers.state(1) is PeerState.ALIVE

    def test_uninstall_cancels_owned_timers(self):
        cluster, clock, hbs, _, _ = build_supervised(2)
        hbs[0].running = True
        assert len(cluster[0].timers) == 1
        cluster[0].uninstall(hbs[0].tid)
        assert len(cluster[0].timers) == 0

    def test_replugged_service_beats_on_and_cascades_once(self):
        """Uninstall + install keeps the beat timer armed and leaves
        one peer-table subscription each: peers never see the node go
        quiet, and a peer death runs the cascade once."""
        cluster, clock, hbs, faulty, _ = build_supervised(3)
        tick(cluster, clock, 2)
        tid = hbs[0].tid
        cluster[0].uninstall(tid)
        cluster[0].install(hbs[0], tid=tid)
        sent = hbs[0].beats_sent
        tick(cluster, clock, 10)
        assert hbs[0].beats_sent == sent + 2 * 10
        assert cluster[1].peers.state(0) is PeerState.ALIVE
        assert cluster[1].peers.suspicions == 0
        faulty[2].partition()
        tick(cluster, clock, 8)
        assert cluster[0].peers.state(2) is PeerState.DEAD
        assert hbs[0].peer_deaths == 1

    def test_monitor_rejects_self(self):
        cluster, _, hbs, _, _ = build_supervised(2)
        with pytest.raises(I2OError, match="does not monitor itself"):
            hbs[0].monitor(0, hbs[0].tid)


class Worker(Listener):
    device_class = "test_worker"


class _Caller(Listener):
    """Sends a private request and records what comes back."""

    def __init__(self) -> None:
        super().__init__("caller")
        self.failures = 0
        self.replies = 0

    def on_plugin(self) -> None:
        self.bind(0x42, self._on_reply)

    def _on_reply(self, frame: Frame) -> None:
        if not frame.is_reply:
            return
        if frame.is_failure:
            self.failures += 1
        else:
            self.replies += 1


class TestFailoverCascade:
    def test_rebind_to_surviving_replica(self):
        cluster, clock, hbs, faulty, discovery = build_supervised(
            3, discovery_on=0
        )
        primary = Worker(name="w-primary")
        replica = Worker(name="w-replica")
        primary_tid = cluster[2].install(primary)
        replica_tid = cluster[1].install(replica)
        for node in (1, 2):
            discovery.refresh(node)
        proxy = cluster[0].create_proxy(2, primary_tid)
        faulty[2].partition()
        tick(cluster, clock, 8)
        assert cluster[0].peers.state(2) is PeerState.DEAD
        route = cluster[0].route_for(proxy)
        assert (route.node, route.remote_tid) == (1, replica_tid)
        assert not route.parked
        assert cluster[0].rebinds >= 1
        assert discovery.rebinds >= 1
        assert cluster[0].metrics.value("exe_route_rebinds_total") >= 1
        assert 2 in discovery.quarantined

    def test_park_policy_fails_senders_fast(self):
        cluster, clock, hbs, faulty, discovery = build_supervised(
            3, policy="park", discovery_on=0
        )
        target_tid = cluster[2].install(Worker())
        discovery.refresh(2)
        caller = _Caller()
        cluster[0].install(caller)
        proxy = cluster[0].create_proxy(2, target_tid)
        faulty[2].partition()
        tick(cluster, clock, 8)
        assert cluster[0].route_for(proxy).parked
        caller.send(proxy, b"anyone home?", xfunction=0x42)
        tick(cluster, clock, 1)
        # The paper's fault story: the sender gets an I2O failure reply
        # instead of waiting on a dead node forever.
        assert caller.failures == 1
        assert cluster[0].parks >= 1

    def test_no_replica_parks_even_under_rebind(self):
        cluster, clock, hbs, faulty, discovery = build_supervised(
            3, discovery_on=0
        )
        lone_tid = cluster[2].install(Worker())
        discovery.refresh(2)
        proxy = cluster[0].create_proxy(2, lone_tid)
        faulty[2].partition()
        tick(cluster, clock, 8)
        assert cluster[0].route_for(proxy).parked

    def test_rejoin_unparks_routes(self):
        cluster, clock, hbs, faulty, discovery = build_supervised(
            3, policy="park", discovery_on=0, rejoin_after=2
        )
        target_tid = cluster[2].install(Worker())
        discovery.refresh(2)
        proxy = cluster[0].create_proxy(2, target_tid)
        faulty[2].partition()
        tick(cluster, clock, 8)
        assert cluster[0].route_for(proxy).parked
        faulty[2].heal()
        tick(cluster, clock, 6)
        assert cluster[0].peers.state(2) is PeerState.ALIVE
        assert not cluster[0].route_for(proxy).parked
        assert 2 not in discovery.quarantined

    def test_reliable_endpoint_aborts_toward_dead_peer(self):
        cluster, clock, hbs, faulty, _ = build_supervised(
            3, policy="park"
        )
        ep0 = ReliableEndpoint(retransmit_ns=1_000, max_retries=10_000)
        ep2 = ReliableEndpoint()
        cluster[0].install(ep0)
        cluster[2].install(ep2)
        failed = []
        ep0.on_failed = lambda seq, target, payload: failed.append(payload)
        peer = cluster[0].create_proxy(2, ep2.tid)
        faulty[2].partition()
        ep0.send_reliable(peer, b"into the void")
        tick(cluster, clock, 8)
        # Supervision aborted the retransmission loop long before the
        # 10k retries could run out.
        assert ep0.in_flight == 0
        assert ep0.aborted == 1
        assert failed == [b"into the void"]

    def test_failover_policy_none_leaves_routes_alone(self):
        cluster, clock, hbs, faulty, discovery = build_supervised(
            3, policy="none", discovery_on=0
        )
        target_tid = cluster[2].install(Worker())
        discovery.refresh(2)
        proxy = cluster[0].create_proxy(2, target_tid)
        faulty[2].partition()
        tick(cluster, clock, 8)
        assert cluster[0].peers.state(2) is PeerState.DEAD
        route = cluster[0].route_for(proxy)
        assert not route.parked and route.node == 2

    def test_park_without_discovery_still_parks_routes(self):
        """A discovery service is optional: park must degrade to
        parking the executive's own routes, not to doing nothing."""
        cluster, clock, hbs, faulty, _ = build_supervised(2, policy="park")
        target_tid = cluster[1].install(Worker())
        caller = _Caller()
        cluster[0].install(caller)
        proxy = cluster[0].create_proxy(1, target_tid)
        faulty[1].partition()
        tick(cluster, clock, 8)
        assert cluster[0].peers.state(1) is PeerState.DEAD
        assert cluster[0].route_for(proxy).parked
        caller.send(proxy, b"", xfunction=0x42)
        tick(cluster, clock, 1)
        assert caller.failures == 1  # failure reply, not silence
        faulty[1].heal()
        tick(cluster, clock, 10)
        assert cluster[0].peers.state(1) is PeerState.ALIVE
        assert not cluster[0].route_for(proxy).parked  # rejoin unparks

    def test_symmetric_partition_heals(self):
        """Both sides park each other's routes — but the beat route is
        exempt (it carries the rejoin probes), so a healed partition
        must converge back to mutual ALIVE, not deadlock at DEAD."""
        cluster, clock, hbs, faulty, _ = build_supervised(
            2, policy="park", rejoin_after=3
        )
        tick(cluster, clock, 2)
        faulty[1].partition()
        tick(cluster, clock, 8)
        assert cluster[0].peers.state(1) is PeerState.DEAD
        assert cluster[1].peers.state(0) is PeerState.DEAD
        faulty[1].heal()
        tick(cluster, clock, 10)
        assert cluster[0].peers.state(1) is PeerState.ALIVE
        assert cluster[1].peers.state(0) is PeerState.ALIVE

    def test_beat_route_survives_rebind_failover(self):
        """Under rebind the dead node's heartbeat class has replicas on
        every node; the beat route must NOT be rebound to one of them —
        it has to keep probing the dead peer itself."""
        cluster, clock, hbs, faulty, discovery = build_supervised(
            3, discovery_on=0
        )
        for node in (1, 2):
            discovery.refresh(node)
        faulty[2].partition()
        tick(cluster, clock, 8)
        assert cluster[0].peers.state(2) is PeerState.DEAD
        beat_route = cluster[0].route_for(hbs[0]._targets[2])
        assert beat_route.node == 2 and not beat_route.parked
        faulty[2].heal()
        tick(cluster, clock, 10)
        assert cluster[0].peers.state(2) is PeerState.ALIVE

    def test_bad_policy_rejected_at_start(self):
        from repro.config.schema import SchemaError

        cluster, _, hbs, _, _ = build_supervised(2)
        hbs[0].stop()
        hbs[0].parameters.update({"failover_policy": "explode"})
        with pytest.raises(SchemaError, match="explode"):
            hbs[0].start()


class TestBootstrapSupervision:
    def test_spec_wires_full_mesh(self):
        from repro.config.bootstrap import bootstrap

        spec = {
            "transport": "loopback",
            "supervision": {
                "interval_ns": 1_000,
                "suspect_after": 2,
                "dead_after": 4,
                "failover_policy": "park",
            },
            "nodes": {
                0: {"devices": []},
                1: {"devices": []},
                2: {"devices": []},
            },
        }
        cluster = bootstrap(spec)
        clock = ManualClock()
        for exe in cluster.executives.values():
            exe.clock = clock
        cluster.start_supervision()
        for _ in range(5):
            clock.t += 1_000
            cluster.pump()
        for node, exe in cluster.executives.items():
            assert exe.peers.nodes() == sorted(
                n for n in cluster.executives if n != node
            )
            assert exe.peers.dead_nodes() == []
        assert cluster.heartbeats[0].typed_param("failover_policy") == "park"

    def test_unknown_supervision_key_rejected(self):
        from repro.config.bootstrap import BootstrapError, bootstrap

        with pytest.raises(BootstrapError, match="unknown supervision"):
            bootstrap({
                "supervision": {"cadence": 5},
                "nodes": {0: {"devices": []}},
            })
