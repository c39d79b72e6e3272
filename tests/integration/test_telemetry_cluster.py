"""PR 2 acceptance: a 4-node event-builder cluster with telemetry.

Runs trigger → readout → build with tracing and metrics enabled on
every node, then reconstructs the complete cross-node trace of one
event from the collector's mirrored rings — per-hop queue-wait and
dispatch durations included — and exercises the Prometheus/JSON dumps.

When ``TELEMETRY_PROM_OUT`` is set the Prometheus text dump is also
written there (the CI workflow publishes it as an artifact).
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.config.bootstrap import bootstrap
from repro.core.tracing import is_trace_context, trace_root_node
from repro.daq.protocol import (
    XF_ALLOCATE,
    XF_CLEAR,
    XF_EVENT_DONE,
    XF_READOUT,
    XF_REQUEST_FRAGMENT,
    XF_TRIGGER,
)


def _build_cluster():
    spec = {
        "transport": "loopback",
        "observability": {},
        "dataflow": {"backpressure": False},
        "nodes": {
            0: {"devices": [
                {"class": "repro.daq.trigger.TriggerSource", "name": "trigger"},
                {"class": "repro.daq.manager.EventManager", "name": "evm"},
            ]},
            1: {"devices": [
                {"class": "repro.daq.readout.ReadoutUnit", "name": "ru0",
                 "kwargs": {"ru_id": 0}},
            ]},
            2: {"devices": [
                {"class": "repro.daq.readout.ReadoutUnit", "name": "ru1",
                 "kwargs": {"ru_id": 1}},
            ]},
            3: {"devices": [
                {"class": "repro.daq.builder.BuilderUnit", "name": "bu0"},
            ]},
        },
    }
    return bootstrap(spec)


@pytest.fixture
def telemetry_cluster():
    cluster = _build_cluster()
    yield cluster
    cluster.pump()
    for exe in cluster.executives.values():
        exe.pool.check_conservation()


def _trigger_traces(collector):
    """Trace ids that contain the EVM's XF_TRIGGER dispatch."""
    merged = collector.merged()
    return [
        trace_id
        for trace_id in merged.trace_ids()
        if any(s.xfunction == XF_TRIGGER for s in merged.hops(trace_id))
    ]


class TestCrossNodeTrace:
    def test_one_event_reconstructs_end_to_end(self, telemetry_cluster):
        cluster = telemetry_cluster
        cluster.device("trigger").fire()
        cluster.pump()
        assert cluster.device("evm").completed == 1
        collector = cluster.collector
        collector.sweep()
        cluster.pump()

        (trace_id,) = _trigger_traces(collector)
        assert is_trace_context(trace_id)
        assert trace_root_node(trace_id) == 0  # rooted at the trigger

        spans = collector.merged().hops(trace_id)
        hops = {(s.node, s.xfunction) for s in spans}
        # trigger → EVM on node 0 ...
        assert (0, XF_TRIGGER) in hops
        # ... readout commands reach both RUs ...
        assert (1, XF_READOUT) in hops and (2, XF_READOUT) in hops
        # ... the BU gets the allocate and pulls both fragments ...
        assert (3, XF_ALLOCATE) in hops
        assert (1, XF_REQUEST_FRAGMENT) in hops
        assert (2, XF_REQUEST_FRAGMENT) in hops
        assert (3, XF_REQUEST_FRAGMENT) in hops  # the fragment replies
        # ... and completion flows back to the EVM, which clears the RUs.
        assert (0, XF_EVENT_DONE) in hops
        assert (1, XF_CLEAR) in hops and (2, XF_CLEAR) in hops

    def test_per_hop_durations_present_and_ordered(self, telemetry_cluster):
        cluster = telemetry_cluster
        cluster.device("trigger").fire()
        cluster.pump()
        collector = cluster.collector
        collector.sweep()
        cluster.pump()
        (trace_id,) = _trigger_traces(collector)
        timeline = [
            dataclasses.asdict(hop) for hop in collector.merged().hops(trace_id)
        ]
        assert len(timeline) >= 8  # the full event walk above
        starts = [hop["start_ns"] for hop in timeline]
        assert starts == sorted(starts)
        assert timeline[0]["xfunction"] == XF_TRIGGER
        for hop in timeline:
            assert hop["queue_wait_ns"] >= 0
            # Wall-clock plane: a Python handler body cannot take 0 ns.
            assert hop["dispatch_ns"] > 0

    def test_burst_keeps_traces_separate(self, telemetry_cluster):
        cluster = telemetry_cluster
        cluster.device("trigger").fire_burst(5)
        cluster.pump()
        assert cluster.device("evm").completed == 5
        collector = cluster.collector
        collector.sweep()
        cluster.pump()
        trigger_traces = _trigger_traces(collector)
        assert len(trigger_traces) == 5  # one trace per logical event


class TestClusterSnapshots:
    def test_metrics_from_all_nodes_and_dumps(self, telemetry_cluster):
        cluster = telemetry_cluster
        cluster.device("trigger").fire_burst(3)
        cluster.pump()
        collector = cluster.collector
        collector.sweep()
        cluster.pump()
        assert sorted(collector.node_metrics) == [0, 1, 2, 3]
        for metrics in collector.node_metrics.values():
            assert metrics["exe_dispatched_total"] > 0
            assert metrics["pool_blocks_in_flight"] >= 0
            # every node's recorder timed its dispatches
            assert 0 < metrics["exe_dispatch_ns_p50"] <= metrics["exe_dispatch_ns_p99"]

        text = collector.render_prometheus()
        for node in range(4):
            assert f'repro_exe_dispatched_total{{node="{node}"}}' in text
        p99 = collector.node_metrics[0]["exe_dispatch_ns_p99"]
        assert f'repro_exe_dispatch_ns_p99{{node="0"}} {p99}' in text

        doc = json.loads(collector.render_json())
        assert set(doc["nodes"]) == {"0", "1", "2", "3"}
        assert doc["totals"]["exe_dispatched_total"] > 0
        assert doc["traces"]

        out = os.environ.get("TELEMETRY_PROM_OUT")
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
