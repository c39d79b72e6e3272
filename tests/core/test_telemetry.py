"""Telemetry agent, collector, and the shared periodic sweeper."""

from __future__ import annotations

import json

import pytest

from repro.core.executive import Executive
from repro.core.telemetry import (
    SWEEP_CONTEXT,
    TelemetryAgent,
    TelemetryCollector,
    decode_hop,
    encode_hop,
)
from repro.flightrec import FlightRecorder, Hop
from repro.i2o.errors import I2OError
from repro.i2o.function_codes import UTIL_PARAMS_GET

from tests.conftest import ManualClock, make_loopback_cluster, pump

SPAN_TID = 17


def _telemetry_cluster(n_nodes: int = 2, *, tracing: bool = True):
    cluster = make_loopback_cluster(n_nodes)
    agents = {}
    for node, exe in cluster.items():
        if tracing:
            exe.attach(FlightRecorder(capacity=512))
        agent = TelemetryAgent(name=f"agent{node}")
        exe.install(agent)
        agents[node] = agent
    collector = TelemetryCollector(name="collector")
    cluster[0].install(collector)
    for node, agent in agents.items():
        collector.watch(node, cluster[0].create_proxy(node, agent.tid))
    return cluster, collector, agents


class TestSpanCodec:
    def test_round_trip(self):
        span = Hop(
            trace_id=0xACE0000000000001, seq=9, node=3, tid=SPAN_TID,
            function=0xFF, xfunction=0x104, start_ns=123456789,
            queue_wait_ns=42, dispatch_ns=7_000,
        )
        assert decode_hop(encode_hop(span)) == span

    def test_malformed_record_rejected(self):
        with pytest.raises(I2OError):
            decode_hop("1;2;3")


class TestCollectorSweep:
    def test_aggregates_every_node(self):
        cluster, collector, _ = _telemetry_cluster(3)
        collector.sweep()
        pump(cluster)
        # The second sweep observes the dispatches the first one caused.
        collector.sweep()
        pump(cluster)
        assert sorted(collector.node_metrics) == [0, 1, 2]
        for node, metrics in collector.node_metrics.items():
            assert metrics["exe_dispatched_total"] > 0
            assert metrics["node"] == node

    def test_spans_deduplicated_across_sweeps(self):
        cluster, collector, _ = _telemetry_cluster(2)
        collector.sweep()
        pump(cluster)
        collector.sweep()  # observes the spans sweep 1 caused
        pump(cluster)
        first = collector.spans_collected
        assert first > 0
        # The agent re-exports its whole ring; further sweeps must only
        # add spans that are actually new.
        collector.sweep()
        pump(cluster)
        second = collector.spans_collected
        collected = {(s.node, s.seq) for s in collector._spans}
        assert len(collected) == second  # no duplicates survived

    def test_collector_speaks_only_util_params_get(self):
        cluster, collector, _ = _telemetry_cluster(2)
        sent = []
        original = cluster[0].frame_send

        def spy(frame):
            if frame.initiator == collector.tid:
                sent.append(frame.function)
            original(frame)

        cluster[0].frame_send = spy
        collector.sweep()
        pump(cluster)
        assert sent and set(sent) == {UTIL_PARAMS_GET}

    def test_collector_side_span_bound(self):
        cluster, collector, _ = _telemetry_cluster(2)
        collector.keep_spans = 3
        collector.sweep()
        pump(cluster)
        collector.sweep()
        pump(cluster)
        assert len(collector._spans) <= 3
        assert len(collector._seen) <= 3

    def test_cluster_totals_sum_across_nodes(self):
        cluster, collector, _ = _telemetry_cluster(2)
        collector.sweep()
        pump(cluster)
        totals = collector.cluster_totals()
        assert totals["exe_dispatched_total"] == sum(
            m["exe_dispatched_total"] for m in collector.node_metrics.values()
        )

    def test_observing_the_observer(self):
        # The collector answers UtilParamsGet itself — same scheme.
        from repro.daq.monitor import DaqMonitor

        cluster, collector, _ = _telemetry_cluster(2)
        monitor = DaqMonitor()
        cluster[1].install(monitor)
        monitor.watch(cluster[1].create_proxy(0, collector.tid))
        collector.sweep()
        pump(cluster)
        monitor.sweep()
        pump(cluster)
        (snapshot,) = monitor.snapshots.values()
        assert int(snapshot["sweeps"]) == 1
        assert int(snapshot["nodes_reporting"]) == 2


class TestRendering:
    def test_prometheus_dump_has_node_labels(self):
        cluster, collector, _ = _telemetry_cluster(2)
        collector.sweep()
        pump(cluster)
        text = collector.render_prometheus()
        assert 'repro_exe_dispatched_total{node="0"}' in text
        assert 'repro_exe_dispatched_total{node="1"}' in text
        assert 'repro_collector_sweeps{node="0"} 1' in text

    def test_json_dump_round_trips(self):
        cluster, collector, _ = _telemetry_cluster(2)
        collector.sweep()
        pump(cluster)
        doc = json.loads(collector.render_json())
        assert set(doc) == {"nodes", "totals", "traces"}
        assert set(doc["nodes"]) == {"0", "1"}
        for timeline in doc["traces"].values():
            for hop in timeline:
                assert {"node", "queue_wait_ns", "dispatch_ns"} <= set(hop)


class TestAgent:
    def test_fresh_snapshot_not_accumulated(self):
        cluster, collector, agents = _telemetry_cluster(2)
        collector.sweep()
        pump(cluster)
        # The agent must not accumulate exported keys as parameters —
        # span keys churn every sweep and would pile up forever.
        for agent in agents.values():
            assert not any(k.startswith("s") for k in agent.parameters)

    def test_export_carries_only_the_newest_hops(self, monkeypatch):
        # However large the ring, one reply stays inside one frame.
        from repro.core import telemetry

        cluster, collector, agents = _telemetry_cluster(2)
        for _ in range(3):
            collector.sweep()
            pump(cluster)
        exported = [
            int(k[1:]) for k in agents[1].local_snapshot()
            if telemetry._HOP_KEY.match(k)
        ]
        assert len(exported) >= 3
        monkeypatch.setattr(telemetry, "MAX_EXPORT_HOPS", 2)
        capped = [
            int(k[1:]) for k in agents[1].local_snapshot()
            if telemetry._HOP_KEY.match(k)
        ]
        assert capped == sorted(exported)[-2:]

    def test_reports_tracing_disabled(self):
        cluster, collector, _ = _telemetry_cluster(2, tracing=False)
        collector.sweep()
        pump(cluster)
        for info in collector.node_metrics.values():
            assert info["trace_enabled"] == 0


class TestPeriodicSweeper:
    def _collector_on_manual_clock(self):
        clock = ManualClock()
        exe = Executive(node=0, clock=clock)
        agent = TelemetryAgent(name="agent")
        exe.install(agent)
        collector = TelemetryCollector(name="collector")
        collector.parameters["sweep_interval_ns"] = "1000"
        exe.install(collector)
        collector.watch(0, agent.tid)
        return clock, exe, collector

    def test_periodic_sweeps_fire_until_quiesced(self):
        clock, exe, collector = self._collector_on_manual_clock()
        collector.on_enable()
        exe.run_until_idle()
        assert collector.sweeps == 0
        clock.t = 1_000
        exe.run_until_idle()
        assert collector.sweeps == 1
        assert 0 in collector.node_metrics
        clock.t = 2_000
        exe.run_until_idle()
        assert collector.sweeps == 2  # the timer re-armed itself
        collector.on_quiesce()
        clock.t = 10_000
        exe.run_until_idle()
        assert collector.sweeps == 2  # disarmed

    def test_zero_interval_stays_manual(self):
        clock, exe, collector = self._collector_on_manual_clock()
        collector.parameters["sweep_interval_ns"] = "0"
        collector.on_enable()
        clock.t = 1_000_000
        exe.run_until_idle()
        assert collector.sweeps == 0
        assert collector._sweep_timer_id is None

    def test_bad_interval_rejected(self):
        _, _, collector = self._collector_on_manual_clock()
        collector.parameters["sweep_interval_ns"] = "soon"
        with pytest.raises(I2OError):
            collector.on_enable()

    def test_sweep_context_is_not_a_trace_id(self):
        from repro.core.tracing import is_trace_context

        assert not is_trace_context(SWEEP_CONTEXT)
