"""Telemetry agent and collector."""

from __future__ import annotations

import base64
import json
import math

import pytest

from repro import top
from repro.core import telemetry
from repro.core.device import FunctionalListener, Listener, encode_params
from repro.core.telemetry import RingMirror, TelemetryAgent, TelemetryCollector
from repro.diag import main
from repro.flightrec.recorder import FlightRecorder
from repro.flightrec.records import (
    EV_DISPATCH,
    EV_TIMER_FIRE,
    FlightRecord,
    decode_records,
    unpack3,
)
from repro.i2o.errors import I2OError
from repro.i2o.function_codes import EXEC_TIMER_EXPIRED, PRIVATE, UTIL_PARAMS_GET

from tests.conftest import ManualClock, make_loopback_cluster, pump
from tests.transports.harness import Caller, Echo

AGENT_TID = 17


def _telemetry_cluster(
    n_nodes: int = 2, *, tracing: bool = True, capacity: int = 512
):
    cluster = make_loopback_cluster(n_nodes)
    agents = {}
    for node, exe in cluster.items():
        if tracing:
            exe.attach(FlightRecorder(capacity=capacity))
        agent = TelemetryAgent(name=f"agent{node}")
        exe.install(agent)
        agents[node] = agent
    collector = TelemetryCollector(name="collector")
    cluster[0].install(collector)
    for node, agent in agents.items():
        collector.watch(node, cluster[0].routes.create_proxy(node, agent.tid))
    return cluster, collector, agents


def _ring_value(*seqs: int) -> str:
    """An agent's ``ring`` value carrying timer records ``seqs``."""
    return base64.b64encode(b"".join(
        FlightRecord(seq, 1_000 + seq, seq, AGENT_TID, 0, EV_TIMER_FIRE).pack()
        for seq in seqs
    )).decode()


def _mirror_state(mirror):
    return list(mirror.records), mirror.cursor, mirror.missed


class TestRingReply:
    def test_malformed_record_rejected(self):
        mirror = RingMirror(1, AGENT_TID)
        assert mirror.ingest(_ring_value(0, 1), "8") == 2
        before = _mirror_state(mirror)
        torn = base64.b64encode(base64.b64decode(_ring_value(2))[:-1]).decode()
        for ring, capacity in [
            ("not base64!", "8"),  # outside the alphabet
            ("QUJD", "8"),  # valid base64, 3 bytes: not a whole record
            (torn, "8"),  # one record short of its last byte
            (_ring_value(2), "eight"),
            (_ring_value(2), "-1"),
        ]:
            with pytest.raises(I2OError, match="node 1: malformed ring reply"):
                mirror.ingest(ring, capacity)
            assert _mirror_state(mirror) == before
        assert mirror.ingest(_ring_value(2), "8") == 1  # still usable

    def test_hostile_agent_leaves_the_mirror_unchanged(self):
        cluster, collector, agents = _telemetry_cluster(2)
        collector.sweep()
        pump(cluster)
        mirror = collector.watched[1]
        before = _mirror_state(mirror)
        agents[1].local_snapshot = lambda since=0: {"ring": "%%%", "node": "1"}
        collector.sweep()
        pump(cluster)
        assert _mirror_state(mirror) == before
        assert cluster[0].handler_errors == 1  # the reply, refused by name
        assert collector.watched[0].cursor > 0  # the other node unaffected


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
        # Sweeps root no trace: the hops are the application's, one
        # echo round trip (two hops) between each pair of sweeps.
        cluster, collector, _ = _telemetry_cluster(2)
        caller = Caller()
        cluster[0].install(caller)
        echo = cluster[0].routes.create_proxy(1, cluster[1].install(Echo("echo")))
        for _ in range(3):
            caller.send(echo, b"ping", xfunction=0x1)
            pump(cluster)
            collector.sweep()
            pump(cluster)
        assert len(caller.replies) == 3
        # Each sweep asks only for records past the cursor: every record
        # the ring wrote before the last reply arrived exactly once.
        for node, mirror in collector.watched.items():
            assert mirror.cursor > 0 and mirror.missed == 0
            assert [r.seq for r in mirror.records] == list(range(mirror.cursor))
            ring = cluster[node].flightrec.records
            assert list(mirror.records) == list(ring[: mirror.cursor])
        merged = collector.merged()
        assert len(merged.trace_ids()) == 3
        hops = [(h.node, h.seq) for t in merged.trace_ids() for h in merged.hops(t)]
        assert len(hops) == 6 and len(set(hops)) == 6

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
        # The mirror is bounded by the node's own ring capacity: it
        # keeps the newest records, contiguous, however many arrived.
        cluster, collector, _ = _telemetry_cluster(2, capacity=8)
        for _ in range(4):
            collector.sweep()
            pump(cluster)
        for mirror in collector.watched.values():
            assert mirror.records.maxlen == 8
            assert [r.seq for r in mirror.records] == list(
                range(mirror.cursor - 8, mirror.cursor)
            )
            assert mirror.cursor > 8  # more arrived than the bound keeps

    def test_cursor_delivers_every_record_exactly_once(self, monkeypatch):
        monkeypatch.setattr(telemetry, "MAX_EXPORT_RECORDS", 16)
        cluster, collector, agents = _telemetry_cluster(2)
        ring = cluster[1].flightrec
        for i in range(100):  # a backlog of several replies' worth
            ring.record(EV_TIMER_FIRE, i, AGENT_TID, 0)
        mirror = collector.watched[1]
        collector.sweep()  # one sweep: every whole batch asks again
        pump(cluster)
        assert collector.sweeps == 1
        assert agents[1].exports >= 7  # 100 records, 16 a reply
        assert ring.total_records - mirror.cursor < 16  # a short reply ended it
        assert ring.dropped_records == 0
        assert mirror.missed == 0
        assert [r.seq for r in mirror.records] == list(range(mirror.cursor))
        assert list(mirror.records) == list(ring.records[: mirror.cursor])

    def test_a_replaced_mirror_stops_asking(self, monkeypatch):
        # A whole batch landing in a mirror a rejoin replaced asks no
        # more: the agent's TiD now answers for the new incarnation.
        monkeypatch.setattr(telemetry, "MAX_EXPORT_RECORDS", 16)
        cluster, collector, agents = _telemetry_cluster(2)
        for i in range(100):
            cluster[1].flightrec.record(EV_TIMER_FIRE, i, AGENT_TID, 0)
        old = collector.watched[1]
        collector.sweep()
        collector.watch(1, old.tid)
        pump(cluster)
        assert agents[1].exports == 1
        assert old.cursor == 16 and collector.watched[1].cursor == 0

    def test_wrapped_ring_shows_in_the_missed_count(self):
        cluster, collector, _ = _telemetry_cluster(2, capacity=8)
        ring = cluster[1].flightrec
        for i in range(40):
            ring.record(EV_TIMER_FIRE, i, AGENT_TID, 0)
        collector.sweep()
        pump(cluster)
        mirror = collector.watched[1]
        assert len(mirror.records) == 8
        assert mirror.missed == mirror.cursor - 8 >= 32
        assert collector.export_counters()["missed_records"] >= mirror.missed
        assert 'repro_collector_missed_records{node="0"}' in (
            collector.render_prometheus()
        )

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
        monitor.watch(cluster[1].routes.create_proxy(0, collector.tid))
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


class TestDispatchLatency:
    """P50/P99 are exact nearest-rank percentiles of the durations of
    the ``PRIVATE`` and timer-expiry dispatches in a node's mirrored
    ring, derived by the collector: nothing new crosses the wire, every
    reader sees the same two keys, and the sweep's own management
    dispatches are left out."""

    KEYS = ("exe_dispatch_ns_p50", "exe_dispatch_ns_p99")

    @staticmethod
    def _expected(records):
        """Nearest rank, computed here: the ceil(p/100 * n)-th smallest."""
        taken = sorted(
            r.d for r in records if r.kind == EV_DISPATCH
            and unpack3(r.b)[1] in (PRIVATE, EXEC_TIMER_EXPIRED))
        return {
            f"exe_dispatch_ns_p{p}": taken[math.ceil(p / 100 * len(taken)) - 1]
            for p in (50, 99)
        }, len(taken)

    def test_exact_over_the_records_a_small_ring_holds(self):
        cluster, collector, agents = _telemetry_cluster(2, capacity=8)
        clock = ManualClock()
        worker = cluster[1]
        worker.clock = worker.flightrec.clock = clock
        took = iter(range(20_000, 0, -1_000))  # 20 dispatches, slow first

        def work(frame):
            clock.t += next(took)

        tid = worker.install(FunctionalListener(name="work", handlers={0x1: work}))
        sender = Listener("sender")
        worker.install(sender)
        for _ in range(20):
            sender.send(tid, b"", xfunction=0x1)
            pump(cluster)
        exported = []  # the ring as the agent read it for its reply
        export = agents[1].local_snapshot

        def spy(since=0):
            exported.append(worker.flightrec.records)
            return export(since)

        agents[1].local_snapshot = spy
        collector.sweep()
        pump(cluster)
        (ring,) = exported
        expected, dispatches = self._expected(ring)
        assert 0 < dispatches < 20  # the window: the ring's 8 records
        metrics = collector.node_metrics[1]
        assert {key: metrics[key] for key in self.KEYS} == expected
        # Exact durations, and the slow early dispatches aged out.
        assert set(expected.values()) <= set(range(1_000, 20_001, 1_000))
        assert expected["exe_dispatch_ns_p99"] < 20_000

    def test_a_slow_timer_expiry_is_in_the_p99(self):
        """A device's ``on_timer`` is its own work, as a request's
        handler is: a slow expiry shows in the node's P99."""
        cluster, collector, _agents = _telemetry_cluster(2)
        clock = ManualClock()
        worker = cluster[1]
        worker.clock = worker.flightrec.clock = clock

        def work(frame):
            clock.t += 1_000

        class Ticker(Listener):
            def on_timer(self, context, frame):
                clock.t += 5_000_000

        tid = worker.install(FunctionalListener(name="work", handlers={0x1: work}))
        sender, ticker = Listener("sender"), Ticker("ticker")
        worker.install(sender)
        worker.install(ticker)
        for _ in range(5):
            sender.send(tid, b"", xfunction=0x1)
            pump(cluster)
        ticker.start_timer(0)
        pump(cluster)
        collector.sweep()
        pump(cluster)
        metrics = collector.node_metrics[1]
        assert {key: metrics[key] for key in self.KEYS} == {
            "exe_dispatch_ns_p50": 1_000, "exe_dispatch_ns_p99": 5_000_000}

    def test_a_slow_management_dispatch_is_not_in_the_p99(self):
        """The agent's ``UtilParamsGet`` roots no trace and is left out:
        a sweep that is slow to answer does not become the P99."""
        cluster, collector, agents = _telemetry_cluster(2)
        clock = ManualClock()
        worker = cluster[1]
        worker.clock = worker.flightrec.clock = clock

        def work(frame):
            clock.t += 1_000

        tid = worker.install(FunctionalListener(name="work", handlers={0x1: work}))
        sender = Listener("sender")
        worker.install(sender)
        for _ in range(5):
            sender.send(tid, b"", xfunction=0x1)
            pump(cluster)
        export = agents[1].local_snapshot

        def slow(since=0):
            clock.t += 5_000_000  # an export that takes 5 ms to build
            return export(since)

        agents[1].local_snapshot = slow
        for _ in range(2):  # the second sweep brings the first one's record
            collector.sweep()
            pump(cluster)
        assert any(r.kind == EV_DISPATCH and r.d >= 5_000_000
                   for r in collector.watched[1].records)
        metrics = collector.node_metrics[1]
        assert {key: metrics[key] for key in self.KEYS} == dict.fromkeys(
            self.KEYS, 1_000)

    def test_every_reader_sees_the_same_values(self, tmp_path, capsys):
        cluster = make_loopback_cluster(3)
        for node in (0, 1):  # node 2 has no recorder
            cluster[node].attach(FlightRecorder(capacity=512))
        # Application traffic: a request dispatched on node 1, its reply
        # on node 0 (the sweep's own dispatches are not counted).
        echo, caller = Echo(), Caller()
        cluster[1].install(echo)
        cluster[0].install(caller)
        caller.send(cluster[0].routes.create_proxy(1, echo.tid), b"x",
                    xfunction=0x1)
        pump(cluster)
        collector = TelemetryCollector(name="collector")
        cluster[0].install(collector)
        for node, exe in cluster.items():
            agent = TelemetryAgent(name=f"agent{node}")
            exe.install(agent)
            collector.watch(node, cluster[0].routes.create_proxy(node, agent.tid))
        for _ in range(2):
            collector.sweep()
            pump(cluster)
        metrics = collector.node_metrics
        text = collector.render_prometheus()
        for node in (0, 1):
            expected, _ = self._expected(collector.watched[node].records)
            assert {key: metrics[node][key] for key in self.KEYS} == expected
            for key, value in expected.items():
                assert f'repro_{key}{{node="{node}"}} {value}\n' in text
        assert not set(self.KEYS) & set(metrics[2])
        assert not set(self.KEYS) & set(collector.cluster_totals())
        live = top.render(metrics)
        path = tmp_path / "sweep.json"
        path.write_text(collector.render_json())
        assert main(["top", "--json", str(path)]) == 0
        assert capsys.readouterr().out == live + "\n"
        rows = {line.split()[0]: line.split() for line in live.splitlines()[1:-1]}
        p50, p99 = top.COLUMNS.index("P50"), top.COLUMNS.index("P99")
        assert "-" not in (rows["0"][p50], rows["1"][p99])
        assert rows["2"][p50] == rows["2"][p99] == "-"


class TestAgent:
    def test_fresh_snapshot_not_accumulated(self):
        cluster, collector, agents = _telemetry_cluster(2)
        collector.sweep()
        pump(cluster)
        # The agent must not accumulate exported keys as parameters —
        # the ring value changes every sweep and would go stale.
        for agent in agents.values():
            assert not {"ring", "ring_capacity"} & set(agent.parameters)

    def test_export_is_capped_from_the_cursor(self, monkeypatch):
        # However large the ring, one reply stays inside one frame: it
        # carries the oldest records past ``since``, the next sweep the rest.
        cluster, collector, agents = _telemetry_cluster(2)
        for _ in range(3):
            collector.sweep()
            pump(cluster)

        def exported(since):
            snapshot = agents[1].local_snapshot(since)
            assert snapshot["ring_capacity"] == "512"
            body = base64.b64decode(snapshot["ring"])
            return [r.seq for r in decode_records(body)]

        total = cluster[1].flightrec.total_records
        assert exported(0) == list(range(total))
        assert exported(total) == []
        monkeypatch.setattr(telemetry, "MAX_EXPORT_RECORDS", 2)
        assert exported(0) == [0, 1]
        assert exported(5) == [5, 6]
        assert exported(total - 1) == [total - 1]

    def test_bad_since_gets_a_failure_reply(self):
        cluster, collector, _ = _telemetry_cluster(2)
        replies = []
        collector.request(
            collector.watched[1].tid, encode_params({"since": "soon"}),
            function=UTIL_PARAMS_GET, on_reply=replies.append,
        )
        pump(cluster)
        assert len(replies) == 1 and replies[0].is_failure

    def test_reports_tracing_disabled(self):
        cluster, collector, _ = _telemetry_cluster(2, tracing=False)
        collector.sweep()
        pump(cluster)
        for info in collector.node_metrics.values():
            assert info["trace_enabled"] == 0
