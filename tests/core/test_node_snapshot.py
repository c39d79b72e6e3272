"""A node's metric snapshot: one producer per counter, one naming rule,
and a series that lives exactly as long as its owner."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.top
from repro.config.bootstrap import bootstrap
from repro.core.device import Listener
from repro.core.executive import Executive
from repro.core.liveness import HeartbeatService
from repro.core.reliable import ReliableEndpoint
from repro.core.telemetry import node_snapshot
from repro.dataflow.examples import event_builder_spec
from repro.flightrec.recorder import FlightRecorder
from repro.profile.sampler import SamplingProfiler
from repro.transports.agent import PeerTransportAgent
from repro.transports.queued import QueuePair, QueueTransport
from tests.transports.harness import Caller, Keeper, make_harness


def _owned(exe: Executive, prefix: str) -> dict[str, float]:
    return {k: v for k, v in node_snapshot(exe).items() if k.startswith(prefix)}


class TestReadAtSweepTime:
    def test_counters_are_read_only_when_the_snapshot_is_taken(self):
        class Counted(Listener):
            metric_kind = ""

            def __init__(self):
                super().__init__("counted")
                self.reads = 0
                self.events = 0

            def export_counters(self):
                self.reads += 1
                return {"counted_events_total": self.events}

        exe = Executive(node=0)
        owner = Counted()
        exe.install(owner)
        owner.events = 42
        assert owner.reads == 0  # installing costs nothing
        assert node_snapshot(exe)["counted_events_total"] == 42
        assert owner.reads == 1

    def test_devices_without_a_metric_kind_stay_out(self):
        exe = Executive(node=0)
        before = set(node_snapshot(exe))
        exe.install(Keeper())
        assert set(node_snapshot(exe)) == before


class TestSameNamedOwners:
    """Every same-named owner after the first (TiD order) carries
    ``_t<TiD>`` after its name, and a one-per-node owner's series whose
    name is taken carries it after the series name, so none hides
    another."""

    def test_two_default_named_reliable_endpoints(self):
        exe = Executive(node=0)
        first, second = ReliableEndpoint(), ReliableEndpoint()
        exe.install(first)
        tid = exe.install(second)
        first.delivered, second.delivered = 7, 3
        snapshot = node_snapshot(exe)
        assert snapshot["rel_reliable_delivered"] == 7
        assert snapshot[f"rel_reliable_t{tid}_delivered"] == 3

    def test_two_heartbeats_one_per_node_kind(self):
        exe = Executive(node=0)
        first, second = HeartbeatService("hb-a"), HeartbeatService("hb-b")
        exe.install(first)
        tid = exe.install(second)
        first.beats_received, second.beats_received = 7, 3
        snapshot = node_snapshot(exe)
        assert snapshot["hb_beats_received_total"] == 7
        assert snapshot[f"hb_beats_received_total_t{tid}"] == 3

    def test_transport_names_that_sanitize_alike(self):
        exe = Executive(node=0)
        pta = PeerTransportAgent.attach(exe)
        dashed = QueueTransport(QueuePair(0, 1), name="q0-1")
        underscored = QueueTransport(QueuePair(0, 2), name="q0_1")
        pta.register(dashed)
        pta.register(underscored)
        dashed.frames_sent, underscored.frames_sent = 5, 2
        snapshot = node_snapshot(exe)
        assert snapshot["pt_q0_1_frames_sent"] == 5
        assert snapshot[f"pt_q0_1_t{underscored.tid}_frames_sent"] == 2


class TestSeriesLiveAsLongAsTheirOwner:
    @pytest.mark.parametrize("name", ["loopback", "queued"])
    def test_an_uninstalled_transport(self, name):
        h = make_harness(name)
        sender, receiver = h.exes[0], h.exes[1]
        pt = h.pts[1]
        prefix = f"pt_{pt.name}_"
        keeper, caller = Keeper(), Caller()
        proxy = sender.routes.create_proxy(1, receiver.install(keeper))
        sender.install(caller)
        caller.send(proxy, b"one", xfunction=0x1)
        assert h.run_until(lambda: len(keeper.payloads) == 1)
        assert _owned(receiver, prefix)[prefix + "frames_received"] == 1
        receiver.uninstall(pt.tid)
        assert _owned(receiver, prefix) == {}
        receiver.pta.register(pt, default=True)
        caller.send(proxy, b"two", xfunction=0x1)
        assert h.run_until(lambda: len(keeper.payloads) == 2)
        assert _owned(receiver, prefix)[prefix + "frames_received"] == 2
        h.finish()

    @pytest.mark.parametrize(
        "owner, prefix, series, counter",
        [
            (ReliableEndpoint, "rel_reliable_", "rel_reliable_delivered",
             "delivered"),
            (HeartbeatService, "hb_", "hb_beats_received_total",
             "beats_received"),
        ],
        ids=["reliable", "heartbeat"],
    )
    def test_an_uninstalled_device(self, owner, prefix, series, counter):
        exe = Executive(node=0)
        device = owner()
        exe.install(device)
        assert series in node_snapshot(exe)
        exe.uninstall(device.tid)
        assert _owned(exe, prefix) == {}
        exe.install(device)
        setattr(device, counter, 4)
        assert node_snapshot(exe)[series] == 4

    def test_a_detached_recorder(self):
        exe = Executive(node=0)
        recorder = exe.attach(FlightRecorder(capacity=64))
        assert node_snapshot(exe)["flightrec_records_total"] == 0
        exe.detach(recorder)
        assert _owned(exe, "flightrec_") == {}
        assert "prof_slow_frames_total" not in node_snapshot(exe)
        exe.attach(recorder)
        recorder.spills = 2
        assert node_snapshot(exe)["flightrec_spills_total"] == 2

    def test_an_unregistered_profiler(self):
        exe = Executive(node=0)
        profiler = SamplingProfiler(hz=50.0)
        profiler.register(exe)
        assert node_snapshot(exe)["prof_samples_total"] == 0
        profiler.unregister(exe)
        assert _owned(exe, "prof_") == {}
        profiler.register(exe)
        profiler.node_samples[0] += 3
        assert node_snapshot(exe)["prof_samples_total"] == 3


#: The series ``repro.top`` reads by exact name; it also sums the
#: ``rel_*_journal_depth`` and ``pt_*_{tx,rx}_copies`` families.
TOP_SERIES = (
    "exe_dispatched_total", "exe_scheduler_depth", "pool_blocks_in_flight",
    "prof_samples_total", "prof_busy_samples_total",
    "peer_deaths_total", "peer_rejoins_total", "exe_handler_errors_total",
    "flightrec_spills_total", "dataflow_shed_total",
)


def test_every_series_top_reads_is_swept():
    """On a cluster booted with every owner kind, each series name the
    console reads appears in the collector's ``node_metrics``: a rename
    cannot silently blank a column."""
    source = Path(repro.top.__file__).read_text()
    quoted = set(re.findall(r'"([a-z_0-9]+)"', source))
    assert {*TOP_SERIES, "rel_", "_journal_depth", "pt_", "_tx_copies",
            "_rx_copies"} <= quoted
    spec = event_builder_spec(2, 1)
    spec["observability"] = {}
    spec["supervision"] = {}
    spec["nodes"][3]["devices"].append(
        {"class": "repro.core.reliable.ReliableEndpoint", "name": "rel"})
    cluster = bootstrap(spec)
    cluster.device("trigger").fire_burst(2)
    cluster.pump()
    cluster.collector.sweep()
    cluster.pump()
    metrics = cluster.collector.node_metrics
    assert sorted(metrics) == sorted(cluster.executives)
    for node, series in metrics.items():
        assert set(TOP_SERIES) <= set(series), node
        for suffix in ("_tx_copies", "_rx_copies"):
            assert any(k.startswith("pt_") and k.endswith(suffix)
                       for k in series), (node, suffix)
    assert "rel_rel_journal_depth" in metrics[3]
