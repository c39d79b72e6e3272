"""The metrics registry: callback gauges and their exposition."""

from __future__ import annotations

import pytest

from repro.core.executive import Executive
from repro.core.metrics import (
    MetricsRegistry,
    openmetrics_escape,
    prometheus_lines,
    sanitize_metric_name,
)
from repro.i2o.errors import I2OError


class TestCounters:
    """Event counts are plain ints the owner bumps, exported through
    callback gauges (``*_total``); there is no counter instrument."""

    def test_count_reads_the_owners_int(self):
        m = MetricsRegistry()
        owner = {"events": 0}
        m.gauge("events_total", lambda: owner["events"])
        owner["events"] += 5
        assert m.value("events_total") == 5

    def test_unknown_metric_raises(self):
        with pytest.raises(I2OError):
            MetricsRegistry().value("nope")


class TestGauges:
    def test_callback_sampled_lazily(self):
        m = MetricsRegistry()
        state = {"n": 1}
        calls = []

        def sample():
            calls.append(1)
            return state["n"]

        m.gauge("live", sample)
        assert calls == []  # registering costs nothing
        state["n"] = 42
        assert m.snapshot()["live"] == 42

    def test_rebinding_callback_replaces(self):
        m = MetricsRegistry()
        m.gauge("g", lambda: 1)
        m.gauge("g", lambda: 2)
        assert m.value("g") == 2

    def test_rebind_is_a_public_method(self):
        # Device re-plug paths swap the sampled object; they go through
        # Gauge.rebind, never the private _fn attribute.
        m = MetricsRegistry()
        gauge = m.gauge("g", lambda: 1)
        gauge.rebind(lambda: 9)
        assert m.value("g") == 9


class TestSnapshotAndRendering:
    def test_snapshot_flattens_all_instruments(self):
        m = MetricsRegistry()
        m.gauge("sent_total", lambda: 3)
        m.gauge("depth", lambda: 2)
        assert m.snapshot() == {"sent_total": 3, "depth": 2}
        # Gauges are the one instrument kind: a distribution is a
        # projection of the flight-recorder ring, not a registry entry.
        assert not hasattr(m, "histogram")

    def test_prometheus_text_shape(self):
        m = MetricsRegistry()
        m.gauge("frames_total", lambda: 2)
        m.gauge("depth", lambda: 0.5)
        text = m.render_prometheus({"node": 3})
        assert text == (
            'repro_depth{node="3"} 0.5\n'
            'repro_frames_total{node="3"} 2\n'
        )

    def test_timing_flag_defaults_off(self):
        # No polled flag: dispatches are timed iff a flight recorder is
        # attached, and a fresh executive has no observer at all.
        assert not hasattr(MetricsRegistry(), "timing")
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
