"""Metric series: owners' plain counters and their exposition."""

from __future__ import annotations

from repro.core.executive import Executive
from repro.core.metrics import (
    openmetrics_escape,
    prometheus_lines,
    sanitize_metric_name,
)
from repro.core.telemetry import node_snapshot
from repro.flightrec.recorder import FlightRecorder


class TestCounters:
    """Event counts are plain ints the owner bumps, read through its
    ``export_counters()`` when the snapshot is taken; there is no
    counter instrument."""

    def test_count_reads_the_owners_int(self):
        exe = Executive(node=0)
        exe.dispatched += 5
        assert node_snapshot(exe)["exe_dispatched_total"] == 5


class TestSnapshotAndRendering:
    def test_snapshot_flattens_all_instruments(self):
        exe = Executive(node=0)
        exe.attach(FlightRecorder(capacity=8))
        snapshot = node_snapshot(exe)
        assert snapshot["exe_devices"] == 1
        assert snapshot["flightrec_records_total"] == 0
        assert all(isinstance(v, (int, float)) for v in snapshot.values())
        # A distribution is a projection of the flight-recorder ring,
        # taken by the collector, not a series of the node.
        assert not [k for k in snapshot if k.startswith("exe_dispatch_ns")]

    def test_prometheus_text_shape(self):
        lines = prometheus_lines({"frames_total": 2, "depth": 0.5}, {"node": 3})
        assert "\n".join(lines) + "\n" == (
            'repro_depth{node="3"} 0.5\n'
            'repro_frames_total{node="3"} 2\n'
        )

    def test_timing_flag_defaults_off(self):
        # No polled flag: dispatches are timed iff a flight recorder is
        # attached, and a fresh executive has no observer at all.
        assert Executive(node=0).observers == ()


class TestOpenMetricsRendering:
    """Label values and metric names as the exposition writes them
    (the Prometheus text format shares the OpenMetrics escapes)."""

    def test_label_escaping(self):
        assert openmetrics_escape('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        lines = prometheus_lines({"x": 1}, {"host": 'ru"0\n'})
        assert lines == ['repro_x{host="ru\\"0\\n"} 1']

    def test_replaces_forbidden_characters(self):
        assert sanitize_metric_name("q0-1") == "q0_1"
        assert sanitize_metric_name("tcp.9001") == "tcp_9001"
        assert sanitize_metric_name("ok_name") == "ok_name"
