"""Bootstrap wiring for the continuous-profiling kit."""

from __future__ import annotations

import pytest

from repro.config.bootstrap import BootstrapError, bootstrap
from repro.core.executive import DISPATCH_LATENCY_BUCKETS_NS
from repro.profile import DispatchSlot, SlowFrameWatch

ECHO = "repro.bench.devices.EchoDevice"
PING = "repro.bench.devices.PingDevice"


def spec_with_profiling(**section):
    return {
        "transport": "loopback",
        "profiling": section,
        "nodes": {
            0: {"devices": [{"class": PING, "name": "ping"}]},
            1: {"devices": [{"class": ECHO, "name": "echo"}]},
        },
    }


def attached(exe, kind):
    """The executive's dispatch observers of one class."""
    return [o for o in exe.observers if isinstance(o, kind)]


def dispatch_hist(cluster, node):
    return cluster.executives[node].metrics.histogram(
        "exe_dispatch_ns", DISPATCH_LATENCY_BUCKETS_NS
    )


class TestWiring:
    def test_defaults_arm_sampler_and_exemplars(self):
        cluster = bootstrap(spec_with_profiling())
        assert cluster.profiler is not None
        assert cluster.profiler.hz == 97.0  # the schema default
        for exe in cluster.executives.values():
            assert attached(exe, DispatchSlot)  # slot attached per node
        for node in (0, 1):
            assert dispatch_hist(cluster, node).exemplars is not None
        # The default budget is 0: no watches armed.
        assert cluster.slow_watches == {}
        assert not any(
            attached(exe, SlowFrameWatch)
            for exe in cluster.executives.values()
        )

    def test_sampling_off_leaves_the_hot_path_alone(self):
        cluster = bootstrap(spec_with_profiling(sampling=False))
        assert cluster.profiler is None
        assert not any(
            attached(exe, DispatchSlot)
            for exe in cluster.executives.values()
        )

    def test_exemplars_off(self):
        cluster = bootstrap(spec_with_profiling(exemplars=False))
        assert dispatch_hist(cluster, 0).exemplars is None

    def test_rate_and_depth_forwarded(self):
        cluster = bootstrap(spec_with_profiling(hz=251.0, max_depth=12))
        assert cluster.profiler.hz == 251.0
        assert cluster.profiler.max_depth == 12

    def test_string_values_coerced(self):
        cluster = bootstrap(spec_with_profiling(hz="251"))
        assert cluster.profiler.hz == 251.0

    def test_budget_arms_a_watch_per_node(self):
        cluster = bootstrap(spec_with_profiling(
            dispatch_budget_ns=50_000, max_spills=2,
        ))
        assert sorted(cluster.slow_watches) == [0, 1]
        for node, watch in cluster.slow_watches.items():
            assert attached(
                cluster.executives[node], SlowFrameWatch
            ) == [watch]
            assert watch.budget_ns == 50_000
            assert watch.max_spills == 2

    def test_no_section_means_fully_off(self):
        spec = spec_with_profiling()
        del spec["profiling"]
        cluster = bootstrap(spec)
        assert cluster.profiler is None
        assert cluster.slow_watches == {}
        for exe in cluster.executives.values():
            assert exe.observers == ()


class TestValidation:
    @pytest.mark.parametrize("section", [
        {"hz": 0.0},
        {"hz": 100_000.0},
        {"max_depth": 0},
        {"dispatch_budget_ns": -1},
        {"bogus_key": 1},
        {"trace_budget_ns": 400_000},  # removed with SlowFrameWatch.note_trace
    ])
    def test_bad_section_rejected(self, section):
        with pytest.raises(BootstrapError, match="bad profiling section"):
            bootstrap(spec_with_profiling(**section))


class TestLifecycle:
    def test_start_all_runs_the_sampler_and_stop_all_joins_it(self):
        cluster = bootstrap(spec_with_profiling(hz=499.0))
        assert not cluster.profiler.running
        cluster.start_all()
        try:
            assert cluster.profiler.running
        finally:
            cluster.stop_all()
        assert not cluster.profiler.running
