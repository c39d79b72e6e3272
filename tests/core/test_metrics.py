"""The metrics registry: callback gauges, histogram bucket edges."""

from __future__ import annotations

import pytest

from repro.core.executive import Executive
from repro.core.metrics import (
    Histogram,
    MetricsRegistry,
    openmetrics_escape,
    prometheus_lines,
    sanitize_metric_name,
)
from repro.i2o.errors import I2OError
from repro.top import dispatch_quantile


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


class TestHistogramBucketEdges:
    def test_value_equal_to_bound_lands_in_that_bucket(self):
        # Prometheus `le` semantics: the bound is inclusive.
        h = Histogram("lat", [10, 20, 30])
        h.observe(10)
        h.observe(10.5)
        h.observe(30)
        h.observe(31)
        assert h.counts == [1, 1, 1, 1]  # le=10, le=20, le=30, +Inf
        assert h.count == 4
        assert h.sum == pytest.approx(81.5)

    def test_below_first_bound(self):
        h = Histogram("lat", [10, 20])
        h.observe(0)
        h.observe(-5)
        assert h.counts == [2, 0, 0]

    def test_export_is_cumulative(self):
        h = Histogram("lat", [10, 20])
        for v in (5, 15, 25):
            h.observe(v)
        flat = h.export()
        assert flat["lat_bucket_le_10"] == 1
        assert flat["lat_bucket_le_20"] == 2
        assert flat["lat_bucket_le_inf"] == 3
        assert flat["lat_count"] == 3
        assert flat["lat_sum"] == 45

    def test_buckets_must_strictly_increase(self):
        with pytest.raises(I2OError):
            Histogram("bad", [10, 10])
        with pytest.raises(I2OError):
            Histogram("bad", [20, 10])
        with pytest.raises(I2OError):
            Histogram("bad", [])


class TestHistogramReregistration:
    def test_same_buckets_returns_the_existing_instrument(self):
        # Re-plug paths re-register their histograms; identical bounds
        # must hand back the same instrument, observations intact.
        m = MetricsRegistry()
        first = m.histogram("lat", [10, 20])
        first.observe(5)
        again = m.histogram("lat", [10, 20])
        assert again is first
        assert again.count == 1

    def test_same_buckets_from_any_iterable(self):
        m = MetricsRegistry()
        first = m.histogram("lat", (10, 20))
        assert m.histogram("lat", iter([10, 20])) is first

    def test_different_buckets_raise(self):
        m = MetricsRegistry()
        m.histogram("lat", [10, 20])
        with pytest.raises(I2OError, match="different buckets"):
            m.histogram("lat", [10, 30])
        with pytest.raises(I2OError, match="different buckets"):
            m.histogram("lat", [10])


class TestBoundRoundTrip:
    """`_fmt_bound` p/m encoding must survive the trip through export
    keys back into Prometheus ``le=`` labels."""

    def _le_labels(self, buckets):
        m = MetricsRegistry()
        m.histogram("lat", buckets)
        lines = prometheus_lines(m.snapshot(), {})
        return [
            line.split('le="')[1].split('"')[0]
            for line in lines
            if "_bucket{" in line
        ]

    def test_integer_bounds(self):
        assert self._le_labels([10, 1000]) == ["10", "1000", "+Inf"]

    def test_float_bounds(self):
        # 0.5 → key "0p5" → label "0.5"
        assert self._le_labels([0.5, 2.5]) == ["0.5", "2.5", "+Inf"]

    def test_negative_bounds(self):
        # -1.5 → key "m1p5" → label "-1.5"
        assert self._le_labels([-1.5, -0.5, 3.0]) == [
            "-1.5", "-0.5", "3", "+Inf",
        ]

    def test_negative_bounds_sort_before_positive(self):
        labels = self._le_labels([-10, -1, 1, 10])
        assert labels == ["-10", "-1", "1", "10", "+Inf"]

    def test_observe_equal_to_bound_through_the_export(self):
        # The inclusive-bound edge must hold end to end: an observation
        # exactly on a float bound counts in that bound's `le` series.
        m = MetricsRegistry()
        h = m.histogram("lat", [0.5, 2.5])
        h.observe(0.5)
        h.observe(2.5)
        flat = m.snapshot()
        assert flat["lat_bucket_le_0p5"] == 1
        assert flat["lat_bucket_le_2p5"] == 2  # cumulative
        lines = prometheus_lines(flat, {})
        assert any(
            'le="0.5"' in line and line.endswith(" 1") for line in lines
        )
        assert any(
            'le="2.5"' in line and line.endswith(" 2") for line in lines
        )

    def test_quantiles_read_the_same_bounds(self):
        # The console parses the export keys with the same parser as
        # the exposition: float and negative bounds come back exact.
        m = MetricsRegistry()
        h = m.histogram("exe_dispatch_ns", [-1.5, 0.5, 1000])
        for value in (-2, 0.25, 0.5, 999):
            h.observe(value)
        flat = m.snapshot()
        assert dispatch_quantile(flat, 0.25) == -1.5
        assert dispatch_quantile(flat, 0.75) == 0.5
        assert dispatch_quantile(flat, 1.0) == 1000
        h.observe(5000)
        assert dispatch_quantile(m.snapshot(), 1.0) == float("inf")


class TestSnapshotAndRendering:
    def test_snapshot_flattens_all_instruments(self):
        m = MetricsRegistry()
        m.gauge("sent_total", lambda: 3)
        m.gauge("depth", lambda: 2)
        m.histogram("lat", [100]).observe(50)
        flat = m.snapshot()
        assert flat["sent_total"] == 3
        assert flat["depth"] == 2
        assert flat["lat_bucket_le_100"] == 1
        assert flat["lat_bucket_le_inf"] == 1

    def test_prometheus_text_shape(self):
        m = MetricsRegistry()
        m.gauge("frames_total", lambda: 2)
        m.histogram("lat", [1000]).observe(10)
        text = m.render_prometheus({"node": 3})
        assert 'repro_frames_total{node="3"} 2' in text
        assert 'repro_lat_bucket{node="3",le="1000"} 1' in text
        assert 'repro_lat_bucket{node="3",le="+Inf"} 1' in text

    def test_bucket_lines_sorted_by_bound(self):
        m = MetricsRegistry()
        h = m.histogram("lat", [5, 50, 1000])
        h.observe(3)
        lines = prometheus_lines(m.snapshot(), {})
        bucket_lines = [l for l in lines if "_bucket{" in l]
        assert [l.split('le="')[1].split('"')[0] for l in bucket_lines] == [
            "5", "50", "1000", "+Inf",
        ]

    def test_timing_flag_defaults_off(self):
        # No polled flag: the histogram fills iff a flight recorder is
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
