"""The durability acceptance drill: kill-and-rejoin under a faulty wire.

A six-node cluster on the fault-injecting transport runs a triggered
event-builder workload whose trigger stream arrives over a *journaled*
reliable endpoint:

* node 0 — EventManager (snapshot store) + receiving endpoint whose
  consumer feeds triggers into the EVM synchronously;
* nodes 1-2 — readout units; nodes 3-4 — builder units;
* node 5 — the trigger feed: a journaled ReliableEndpoint.

Two nodes are killed abruptly (``Cluster.kill`` — journals crash, then
``hard_stop``, the kill -9 analogue) at different points mid-burst and
rebuilt from their durable state by ``Cluster.rejoin``: first the EVM
node (snapshot restore + relaunch), then the feed node (journal
replay).  The run must finish with ZERO events lost, every event built
exactly once, and every pool clean — the executives run on sanitizing
pools (``REPRO_SANITIZE=1``), so canary scans and leak tracebacks are
active whatever the suite's own setting.
"""

from __future__ import annotations

import struct

import pytest

from repro.analysis.sanitize import assert_clean
from repro.config.bootstrap import bootstrap
from repro.flightrec.dump import load_dump
from repro.flightrec.records import EV_REL_ACK, EV_REL_DELIVER, EV_REL_SEND
from repro.flightrec.timeline import MergedTimeline, in_flight_sends
from repro.transports.faulty import FaultPlan

from tests.conftest import ManualClock

_EVENT_ID = struct.Struct("<Q")

EVM_NODE = 0
FEED_NODE = 5
REL = "repro.core.reliable.ReliableEndpoint"


def drill_spec(tmp_path, seed):
    """The six-node drill: every node carries a black box spilling to
    ``crash/``, the EVM a snapshot store, the feed a journal."""
    return {
        "faults": {"drop_rate": 0.05, "duplicate_rate": 0.02, "seed": seed},
        "nodes": {
            EVM_NODE: {"devices": [
                {"class": "repro.daq.manager.EventManager", "name": "evm",
                 "kwargs": {"event_timeout_ns": 5_000,
                            "max_reassignments": 30}},
                {"class": REL, "name": "rx",
                 "kwargs": {"retransmit_ns": 1000}},
            ]},
            **{1 + i: {"devices": [
                {"class": "repro.daq.readout.ReadoutUnit", "name": f"ru{i}",
                 "kwargs": {"ru_id": i, "mean_fragment": 256}},
            ]} for i in (0, 1)},
            **{3 + i: {"devices": [
                {"class": "repro.daq.builder.BuilderUnit", "name": f"bu{i}",
                 "kwargs": {"bu_id": i}},
            ]} for i in (0, 1)},
            FEED_NODE: {"devices": [
                {"class": REL, "name": "feed",
                 "kwargs": {"retransmit_ns": 1000, "max_retries": 400}},
                # The daq.trigger producer the feed stands for: never
                # fired, triggers reach the EVM over the reliable stream.
                {"class": "repro.daq.trigger.TriggerSource",
                 "name": "trigger"},
            ]},
        },
        "observability": {"dir": tmp_path / "crash", "capacity": 4096},
        "dataflow": {"backpressure": False},
        "durability": {"dir": tmp_path},
    }


@pytest.fixture(autouse=True)
def _sanitizing_pools(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


class _Drill:
    def __init__(self, tmp_path, *, seed=11):
        self.crash_dir = tmp_path / "crash"
        self.cluster = bootstrap(drill_spec(tmp_path, seed),
                                 clock=ManualClock())
        self.dead = []
        self._feed_evm()

    exes = property(lambda self: self.cluster.executives)
    evm = property(lambda self: self.cluster.device("evm"))
    feed = property(lambda self: self.cluster.device("feed"))
    rus = property(lambda self: {i: self.cluster.device(f"ru{i}")
                                 for i in (0, 1)})
    bus = property(lambda self: {i: self.cluster.device(f"bu{i}")
                                 for i in (0, 1)})

    def _feed_evm(self):
        # The durable-stream receiver feeds the EVM *synchronously in
        # its own dispatch*: delivery, intake and snapshot autosave
        # commit (or die) together.
        evm = self.evm
        self.cluster.device("rx").consumer = lambda src, data: (
            evm.intake_trigger(_EVENT_ID.unpack(bytes(data))[0])
        )

    # -- workload -------------------------------------------------------
    def fire(self, first, last):
        peer = self.cluster.proxy(FEED_NODE, "rx")
        for event_id in range(first, last + 1):
            self.feed.send_reliable(peer, _EVENT_ID.pack(event_id))

    def run(self, ticks, step_ns=1000):
        # Pump to idle at the current virtual time *before* advancing
        # it (the test_reliable idiom): in-flight exchanges complete
        # "instantly", so timers only fire for genuinely lost traffic.
        for _ in range(ticks):
            self.cluster.pump()
            self.cluster.clock.t += step_ns
        self.cluster.pump()

    # -- the two kills --------------------------------------------------
    def _kill_and_rejoin(self, node):
        self.dead.append(self.cluster.executive(node))
        self.cluster.kill(node)
        self.cluster.rejoin(node)

    def kill_and_rejoin_evm_node(self):
        """kill -9 the EVM node mid-burst; the replacement restores
        from the snapshot store and resumes building.  Its endpoint's
        dedup window is empty — EVM-level dedup (restored from the
        snapshot) absorbs re-deliveries instead."""
        self._kill_and_rejoin(EVM_NODE)
        self._feed_evm()
        assert self.evm.recover() is True

    def kill_and_rejoin_feed_node(self):
        """kill -9 the feed mid-burst; the replacement replays every
        unacknowledged trigger from the journal and resumes the
        sequence space."""
        self._kill_and_rejoin(FEED_NODE)

    # -- verdicts -------------------------------------------------------
    def assert_all_pools_clean(self):
        for exe in (*self.exes.values(), *self.dead):
            exe.pool.check_conservation()
            assert exe.pool.in_flight == 0, (
                f"node {exe.node} leaked {exe.pool.in_flight} blocks"
            )
            assert_clean(exe.pool)


def test_kill_and_rejoin_zero_events_lost(tmp_path):
    cluster = _Drill(tmp_path)

    # Phase 1: first burst; let it run just long enough that some
    # events complete, some are mid-build and some triggers are still
    # in flight on the lossy wire — then kill the EVM node.
    cluster.fire(1, 12)
    cluster.run(ticks=4)
    assert 0 < cluster.evm.completed < 12, (
        "kill must land mid-burst to mean anything"
    )
    cluster.kill_and_rejoin_evm_node()
    cluster.run(ticks=120)

    # Phase 2: second burst; kill the feed mid-burst this time — the
    # sends are journaled and committed but none acknowledged yet, so
    # every one of them must come back from the replay.
    cluster.fire(13, 24)
    assert cluster.feed.in_flight == 12, (
        "kill must land with sends still unacknowledged"
    )
    cluster.kill_and_rejoin_feed_node()
    assert cluster.feed.replayed > 0  # the journal really drove replay
    cluster.run(ticks=400)

    evm, feed = cluster.evm, cluster.feed
    # ZERO events lost: every trigger ever fired was built, once.
    assert evm.completed == 24
    assert sorted(evm.completed_ids) == list(range(1, 25))
    assert evm.lost_events == []
    assert evm.in_flight == 0
    # The stream settled: nothing pending, the journal fully retired.
    assert feed.in_flight == 0
    assert feed.journal_depth == 0
    # Re-delivered triggers were absorbed, not rebuilt.
    assert evm.restores == 1
    # Readout buffers all cleared — no abandoned event residue.
    for ru in cluster.rus.values():
        assert ru.buffered_events == 0
    # Pool hygiene across the whole story, dead executives included,
    # under the runtime sanitizer's canary scan.
    cluster.assert_all_pools_clean()


def test_black_box_merge_reconstructs_the_killed_events(tmp_path):
    """The post-mortem acceptance drill: after killing the feed with a
    full burst committed-but-unacked, the dead incarnation's dump alone
    identifies the in-flight frames, and merging every node's dump
    reconstructs one killed event's full cross-node story."""
    cluster = _Drill(tmp_path)
    cluster.fire(1, 12)
    cluster.run(ticks=120)
    assert cluster.evm.completed == 12

    # Kill the feed with seqs 13-24 journaled but none acknowledged.
    cluster.fire(13, 24)
    assert cluster.feed.in_flight == 12
    cluster.kill_and_rejoin_feed_node()
    cluster.run(ticks=400)
    assert cluster.evm.completed == 24

    # The dead incarnation spilled at hard_stop; its black box alone
    # names the frames in flight at the crash window — no journal read.
    dead_dump = load_dump(cluster.crash_dir / "node005.flightrec")
    assert dead_dump.node == FEED_NODE
    assert dead_dump.reason == "hard_stop"
    assert [r.a for r in in_flight_sends(dead_dump)] == list(range(13, 25))

    # Spill every survivor and merge the whole incident.
    dumps = [dead_dump]
    for exe in cluster.exes.values():
        dumps.append(load_dump(exe.flightrec.spill("post-mortem")))
    timeline = MergedTimeline(dumps)
    assert timeline.nodes == [0, 1, 2, 3, 4, 5]

    # One killed event end to end: seq 13 committed by the dead feed,
    # replayed by its successor (same node id), delivered on the EVM
    # node, acked back home — one causal, cross-node order.
    hops = timeline.stream(sender=FEED_NODE, seq=13)
    kinds = [event.record.kind for event in hops]
    assert kinds.count(EV_REL_SEND) >= 2  # original + journal replay
    assert EV_REL_ACK in kinds
    delivers = [e for e in hops if e.record.kind == EV_REL_DELIVER]
    assert [e.node for e in delivers] == [EVM_NODE]
    assert timeline.delivered(FEED_NODE, EVM_NODE, 13)
    # The replay arrived after the original left: causal order held.
    first_send = next(e for e in hops if e.record.kind == EV_REL_SEND)
    assert delivers[0].record.t_ns >= first_send.record.t_ns

    cluster.assert_all_pools_clean()


def test_clean_wire_no_faults_needed(tmp_path):
    """Control run: with a perfect wire and no kills the same rig
    completes without a single retransmission or reassignment."""
    cluster = _Drill(tmp_path)
    for pt_holder in cluster.exes.values():
        pt_holder.pta.transport("faulty").plan = FaultPlan()
    cluster.fire(1, 10)
    cluster.run(ticks=30)
    assert cluster.evm.completed == 10
    assert cluster.feed.retransmissions == 0
    assert cluster.evm.reassignments == 0
    assert cluster.feed.journal_depth == 0
    cluster.assert_all_pools_clean()
