"""Bootstrap wiring for the one ``observability`` section: the flight
recorder (trace stamping and the dispatch budget included), timer and
sampler on every node, plus the telemetry agents and their
collector."""

from __future__ import annotations

import pytest

from repro.config.bootstrap import BootstrapError, bootstrap
from repro.core.device import FunctionalListener
from repro.core.executive import DISPATCH_LATENCY_BUCKETS_NS
from repro.core.metrics import DispatchTimer
from repro.core.telemetry import TelemetryAgent, TelemetryCollector
from repro.flightrec import FlightRecorder, load_dump
from repro.flightrec.records import EV_HARD_STOP, EV_SLOW_FRAME
from repro.profile import DispatchSlot

ECHO = "repro.bench.devices.EchoDevice"
PING = "repro.bench.devices.PingDevice"

#: the keys the retired flight_recorder/telemetry/profiling sections
#: took that the observability section does not
RETIRED_KEYS = (
    "tracing", "metrics_timing", "collector", "collector_node",
    "sweep_interval_ns", "keep_spans", "sampling", "max_depth",
    "exemplars", "spill_on_trip", "max_spills",
)


def spec_with(**section):
    return {
        "transport": "loopback",
        "observability": section,
        "nodes": {
            0: {"devices": [{"class": PING, "name": "ping"}]},
            1: {"devices": [{"class": ECHO, "name": "echo"}]},
        },
    }


def dispatch_hist(cluster, node):
    return cluster.executives[node].metrics.histogram(
        "exe_dispatch_ns", DISPATCH_LATENCY_BUCKETS_NS
    )


class TestWiring:
    def test_attach_order_per_node(self):
        cluster = bootstrap(spec_with(dispatch_budget_ns=50_000))
        for exe in cluster.executives.values():
            assert [type(o) for o in exe.observers] == [
                FlightRecorder, DispatchTimer, DispatchSlot,
            ]

    def test_no_budget_means_no_watch(self):
        cluster = bootstrap(spec_with())
        for node, exe in cluster.executives.items():
            assert cluster.flight_recorders[node].budget_ns == 0
            assert [type(o) for o in exe.observers] == [
                FlightRecorder, DispatchTimer, DispatchSlot,
            ]

    def test_every_node_gets_the_kit(self):
        cluster = bootstrap(spec_with())
        assert sorted(cluster.flight_recorders) == [0, 1]
        for node, exe in cluster.executives.items():
            recorder = cluster.flight_recorders[node]
            assert exe.flightrec is recorder
            assert recorder.node == node
            assert recorder.clock is exe.clock
            assert recorder.capacity == 4096  # the schema default
            assert dispatch_hist(cluster, node).exemplars is not None
            assert isinstance(cluster.telemetry_agents[node], TelemetryAgent)
        assert cluster.profiler.hz == 97.0  # the schema default
        assert cluster.profiler.max_depth == 48  # the class default

    def test_collector_on_the_lowest_node(self):
        cluster = bootstrap(spec_with())
        collector = cluster.collector
        assert isinstance(collector, TelemetryCollector)
        assert cluster.node_of(collector.name) == 0
        assert collector.keep_spans == 8192  # the class default
        assert collector.sweep_interval_ns() == 0  # manual sweeps

    def test_diskless_rings_without_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cluster = bootstrap(spec_with())
        for recorder in cluster.flight_recorders.values():
            assert recorder.dump_dir is None
            assert recorder.spill("test") is None
        cluster.executives[1].hard_stop()
        assert list(tmp_path.iterdir()) == []

    def test_hard_stop_spills_into_the_configured_dir(self, tmp_path):
        cluster = bootstrap(spec_with(dir=str(tmp_path / "crash")))
        cluster.executives[1].hard_stop()
        dump = load_dump(tmp_path / "crash" / "node001.flightrec")
        assert dump.node == 1
        assert dump.of_kind(EV_HARD_STOP)

    def test_capacity_hz_and_budget_forwarded(self):
        cluster = bootstrap(spec_with(
            capacity=64, hz=251.0, dispatch_budget_ns=50_000,
        ))
        assert cluster.profiler.hz == 251.0
        assert sorted(cluster.flight_recorders) == [0, 1]
        for recorder in cluster.flight_recorders.values():
            assert recorder.capacity == 64
            assert recorder.budget_ns == 50_000

    def test_budget_spills_slow_frames_into_the_dir(self, tmp_path):
        cluster = bootstrap(spec_with(
            dir=str(tmp_path), dispatch_budget_ns=1,  # every dispatch trips
        ))
        exe = cluster.executives[1]
        sink = FunctionalListener(name="sink", handlers={0x1: lambda f: None})
        tid = exe.install(sink)
        sink.send(tid, b"x", xfunction=0x1)
        exe.run_until_idle()
        assert cluster.flight_recorders[1].slow_frames >= 1
        dump = load_dump(tmp_path / "node001.flightrec")
        assert dump.reason == "slow-frame"
        assert dump.of_kind(EV_SLOW_FRAME)

    def test_string_values_coerced(self):
        cluster = bootstrap(spec_with(capacity="128", hz="251"))
        assert cluster.flight_recorders[1].capacity == 128
        assert cluster.profiler.hz == 251.0

    def test_no_section_means_no_observers(self):
        spec = spec_with()
        del spec["observability"]
        cluster = bootstrap(spec)
        assert cluster.flight_recorders == {}
        assert cluster.profiler is None
        assert cluster.collector is None
        for exe in cluster.executives.values():
            assert exe.observers == ()
            assert exe.flightrec is None


class TestRejection:
    @pytest.mark.parametrize("key", RETIRED_KEYS)
    def test_retired_key_refused(self, key):
        with pytest.raises(
            BootstrapError,
            match=rf"bad observability section: "
                  rf"unknown observability keys \['{key}'\]",
        ):
            bootstrap(spec_with(**{key: 1}))

    @pytest.mark.parametrize(
        "section", ["flight_recorder", "telemetry", "profiling"]
    )
    def test_retired_section_refused(self, section):
        spec = spec_with()
        spec[section] = spec.pop("observability")
        with pytest.raises(BootstrapError) as info:
            bootstrap(spec)
        message = str(info.value)
        assert f"unknown spec keys ['{section}']" in message
        assert (
            "known keys: ['dataflow', 'durability', 'nodes', "
            "'observability', 'supervision', 'transport']"
        ) in message

    @pytest.mark.parametrize("section", [
        {"dir": 5},
        {"capacity": 1},
        {"hz": 0.0},
        {"hz": 100_000.0},
        {"dispatch_budget_ns": -1},
        {"trace_budget_ns": 400_000},  # a retired profiling key
    ])
    def test_bad_value_refused(self, section):
        with pytest.raises(BootstrapError, match="bad observability section"):
            bootstrap(spec_with(**section))


class TestLifecycle:
    def test_start_all_runs_the_sampler_and_stop_all_joins_it(self):
        cluster = bootstrap(spec_with(hz=499.0))
        assert not cluster.profiler.running
        cluster.start_all()
        try:
            assert cluster.profiler.running
        finally:
            cluster.stop_all()
        assert not cluster.profiler.running
