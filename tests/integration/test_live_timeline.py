"""The live collector and the rings it mirrors give one answer.

The collector pulls each node's flight-recorder records over
``UtilParamsGet`` into one mirror per node incarnation and reads them
through the same ``MergedTimeline`` a dead cluster's dumps go through,
so live hops and critical paths match the rings record for record —
across a kill and rejoin too, where the reborn ring restarts at seq 0.
"""

from __future__ import annotations

from repro.config.bootstrap import bootstrap
from repro.core import telemetry
from repro.daq.protocol import XF_TRIGGER
from repro.dataflow.examples import event_builder_spec
from repro.flightrec.timeline import MergedTimeline, project_hops
from repro.profile.critical import CriticalPathAnalyzer

#: the builder unit's node in ``event_builder_spec(2, 1)``
BU_NODE = 3


def _traced_cluster():
    spec = event_builder_spec(2, 1)
    spec["observability"] = {}
    return bootstrap(spec)


def _all_hops(merged):
    return {hop for t in merged.trace_ids() for hop in merged.hops(t)}


def _two_sweeps(cluster, node):
    """Sweep twice; returns ``node``'s ring hops as the second sweep
    found them (its own dispatch is still running when the agent
    answers, so that hop waits for a third)."""
    collector = cluster.collector
    collector.sweep()
    cluster.pump()
    ring_hops = set(project_hops(node, cluster.flight_recorders[node].records))
    collector.sweep()
    cluster.pump()
    return ring_hops


def test_rejoined_node_keeps_both_incarnations():
    cluster = _traced_cluster()
    trigger, evm = cluster.device("trigger"), cluster.device("evm")
    trigger.fire_burst(3)
    cluster.pump()
    dead = _two_sweeps(cluster, BU_NODE)
    cluster.kill(BU_NODE)
    cluster.rejoin(BU_NODE)
    trigger.fire_burst(3)
    cluster.pump()
    assert evm.completed == 6
    reborn = _two_sweeps(cluster, BU_NODE)
    # The reborn ring restarts at seq 0, under the dead one's seqs.
    assert {h.seq for h in reborn} & {h.seq for h in dead}
    merged = cluster.collector.merged()
    assert dead <= _all_hops(merged)
    assert reborn <= _all_hops(merged)
    assert [m.node for m in cluster.collector.mirrors].count(BU_NODE) == 2
    assert all(m.missed == 0 for m in cluster.collector.mirrors)


def test_live_critical_paths_match_the_rings():
    cluster = _traced_cluster()
    cluster.device("trigger").fire_burst(5)
    cluster.pump()
    collector = cluster.collector
    collector.sweep()
    cluster.pump()
    rings = MergedTimeline(cluster.flight_recorders.values())
    events = [
        t for t in rings.trace_ids()
        if any(h.xfunction == XF_TRIGGER for h in rings.hops(t))
    ]
    assert len(events) == 5
    live = CriticalPathAnalyzer(collector.merged())
    expected = CriticalPathAnalyzer(rings)
    for trace_id in events:
        assert live.path(trace_id) == expected.path(trace_id)
    assert collector.merged() is collector.merged()  # cached until new records


def test_one_sweep_drains_rings_larger_than_a_reply(monkeypatch):
    monkeypatch.setattr(telemetry, "MAX_EXPORT_RECORDS", 64)
    cluster = _traced_cluster()
    cluster.device("trigger").fire_burst(20)
    cluster.pump()
    rings = cluster.flight_recorders
    written = {node: ring.total_records for node, ring in rings.items()}
    assert max(written.values()) > 4 * 64  # several replies' worth
    merged = MergedTimeline(rings.values())
    events = {
        t for t in merged.trace_ids()
        if any(h.xfunction == XF_TRIGGER for h in merged.hops(t))
    }
    assert len(events) == 20
    collector = cluster.collector
    collector.sweep()
    cluster.pump()
    # The sweep rooted no trace of its own, and its one round of asks
    # (each whole batch asking again) drained every ring.
    assert set(collector.merged().trace_ids()) == events
    for node, mirror in collector.watched.items():
        assert mirror.missed == 0 and mirror.cursor >= written[node]
        assert list(mirror.records) == list(rings[node].records[: mirror.cursor])
