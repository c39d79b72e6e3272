"""The durability acceptance drill: kill-and-rejoin under a faulty wire.

A six-node cluster on the fault-injecting transport runs a triggered
event-builder workload whose trigger stream arrives over a *journaled*
reliable endpoint:

* node 0 — EventManager (snapshot store) + receiving endpoint whose
  consumer feeds triggers into the EVM synchronously;
* nodes 1-2 — readout units; nodes 3-4 — builder units;
* node 5 — the trigger feed: a journaled ReliableEndpoint.

Two nodes are killed abruptly (``hard_stop`` — the kill -9 analogue)
at different points mid-burst and rebuilt from their durable state:
first the EVM node (snapshot restore + relaunch), then the feed node
(journal replay).  The run must finish with ZERO events lost, every
event built exactly once, and every pool clean — the executives run on
explicitly sanitizing pools, so canary scans and leak tracebacks are
active regardless of REPRO_SANITIZE.
"""

from __future__ import annotations

import struct

from repro.analysis.sanitize import SanitizingTableAllocator, assert_clean
from repro.core.executive import Executive
from repro.core.reliable import ReliableEndpoint
from repro.flightrec import (
    FlightRecorder,
    MergedTimeline,
    in_flight_sends,
    load_dump,
)
from repro.flightrec.records import EV_REL_ACK, EV_REL_DELIVER, EV_REL_SEND
from repro.daq import BuilderUnit, EventManager, ReadoutUnit
from repro.dataflow import wire_dataflow
from repro.durable.segments import SegmentStore, SnapshotStore
from repro.mem.pool import BufferPool
from repro.transports.agent import PeerTransportAgent
from repro.transports.faulty import FaultPlan, FaultyLoopbackTransport

_EVENT_ID = struct.Struct("<Q")

EVM_NODE = 0
FEED_NODE = 5
DROPPY = FaultPlan(drop_rate=0.05, duplicate_rate=0.02)


class _ManualClock:
    def __init__(self) -> None:
        self.t = 0

    def now_ns(self) -> int:
        return self.t


class _Cluster:
    def __init__(self, tmp_path, *, seed=11):
        self.tmp_path = tmp_path
        self.seed = seed
        self.network = None
        self.exes: dict[int, Executive] = {}
        self.clocks: dict[int, _ManualClock] = {}
        self.dead: list[Executive] = []
        self.tick = 0
        # Every node carries a black box + tracer; a killed node's ring
        # spills at hard_stop under a per-incarnation name so the dead
        # incarnation's evidence is never overwritten by its successor.
        self.crash_dir = tmp_path / "crash"
        self.crash_dir.mkdir(parents=True, exist_ok=True)
        self.incarnations: dict[int, int] = {}

        from repro.transports.loopback import LoopbackNetwork

        self.network = LoopbackNetwork()
        for node in range(6):
            self._boot_node(node)

        # -- node 0: EVM + receiving endpoint --------------------------
        self.evm = EventManager(event_timeout_ns=5_000, max_reassignments=30)
        self.evm_tid = int(self.exes[EVM_NODE].install(self.evm))
        self.rx = self._install_rx(self.exes[EVM_NODE], self.evm)
        self.rx_tid = int(self.rx.tid)

        # -- nodes 1-4: RUs and BUs ------------------------------------
        self.rus = {i: ReadoutUnit(ru_id=i, mean_fragment=256)
                    for i in (0, 1)}
        for i, ru in self.rus.items():
            self.exes[1 + i].install(ru)
        self.bus = {i: BuilderUnit(bu_id=i) for i in (0, 1)}
        for i, bu in self.bus.items():
            self.exes[3 + i].install(bu)
        self._wire()

        # -- node 5: the journaled trigger feed ------------------------
        self.feed_store = SegmentStore(tmp_path / "feed.journal")
        self.feed = ReliableEndpoint(
            name="feed", retransmit_ns=1000, max_retries=400,
            journal=self.feed_store,
        )
        self.feed_tid = int(self.exes[FEED_NODE].install(self.feed))

        self.evm.snapshot_store = SnapshotStore(tmp_path / "evm.snapshot")

    # -- construction helpers -------------------------------------------
    def _boot_node(self, node):
        clock = _ManualClock()
        clock.t = self.tick * 1000
        exe = Executive(
            node=node, clock=clock,
            pool=BufferPool(SanitizingTableAllocator()),
        )
        inc = self.incarnations.get(node, 0) + 1
        self.incarnations[node] = inc
        exe.attach(FlightRecorder(
            capacity=4096, dump_dir=self.crash_dir,
            name=f"node{node}-inc{inc}",
        ))
        PeerTransportAgent.attach(exe).register(
            FaultyLoopbackTransport(
                self.network, DROPPY, seed=self.seed + node
            ),
            default=True,
        )
        self.exes[node], self.clocks[node] = exe, clock
        return exe

    def _install_rx(self, exe, evm, tid=None):
        rx = ReliableEndpoint(name="rx", retransmit_ns=1000)
        # The durable-stream receiver feeds the EVM *synchronously in
        # its own dispatch*: delivery, intake and snapshot autosave
        # commit (or die) together.
        rx.consumer = lambda src, data: evm.intake_trigger(
            _EVENT_ID.unpack(bytes(data))[0]
        )
        exe.install(rx, tid=tid)
        return rx

    def _wire(self):
        # Not strict: nothing here emits daq.trigger — triggers reach
        # the EVM over the reliable stream, not a dataflow route.
        wire_dataflow(self.exes, strict=False, backpressure=False)

    # -- workload -------------------------------------------------------
    def fire(self, first, last):
        peer = self.exes[FEED_NODE].create_proxy(EVM_NODE, self.rx_tid)
        for event_id in range(first, last + 1):
            self.feed.send_reliable(peer, _EVENT_ID.pack(event_id))

    def run(self, ticks, step_ns=1000):
        # Pump to idle at the current virtual time *before* advancing
        # it (the test_reliable idiom): in-flight exchanges complete
        # "instantly", so timers only fire for genuinely lost traffic.
        for _ in range(ticks):
            self._pump()
            self.tick += 1
            for clock in self.clocks.values():
                clock.t = self.tick * step_ns
        self._pump()

    def _pump(self):
        for _ in range(10_000):
            if not any(exe.step() for exe in self.exes.values()):
                return

    # -- the two kills --------------------------------------------------
    def kill_and_rejoin_evm_node(self):
        """kill -9 the EVM node mid-burst; boot a replacement that
        restores from the snapshot store and resumes building."""
        self.exes[EVM_NODE].hard_stop()
        self.dead.append(self.exes[EVM_NODE])
        exe = self._boot_node(EVM_NODE)
        evm2 = EventManager(event_timeout_ns=5_000, max_reassignments=30)
        # Same TiDs as before the crash: the surviving BUs still
        # address DONE to the EVM's slot, and the feed's
        # retransmissions must land on the endpoint's.  (Reserve both
        # before creating proxies, which draw from the same space.)
        exe.install(evm2, tid=self.evm_tid)
        # The fresh endpoint's dedup window is empty — EVM-level dedup
        # (restored from the snapshot) absorbs re-deliveries instead.
        self.rx = self._install_rx(exe, evm2, tid=self.rx_tid)
        self._wire()
        evm2.snapshot_store = SnapshotStore(self.tmp_path / "evm.snapshot")
        assert evm2.recover() is True
        self.evm = evm2

    def kill_and_rejoin_feed_node(self):
        """kill -9 the feed mid-burst; the replacement replays every
        unacknowledged trigger from the journal and resumes the
        sequence space."""
        self.feed_store.crash()
        self.exes[FEED_NODE].hard_stop()
        self.dead.append(self.exes[FEED_NODE])
        exe = self._boot_node(FEED_NODE)
        self.feed_store = SegmentStore(self.tmp_path / "feed.journal")
        self.feed = ReliableEndpoint(
            name="feed", retransmit_ns=1000, max_retries=400,
            journal=self.feed_store,
        )
        exe.install(self.feed, tid=self.feed_tid)

    # -- verdicts -------------------------------------------------------
    def assert_all_pools_clean(self):
        for exe in (*self.exes.values(), *self.dead):
            exe.pool.check_conservation()
            assert exe.pool.in_flight == 0, (
                f"node {exe.node} leaked {exe.pool.in_flight} blocks"
            )
            assert_clean(exe.pool)


def test_kill_and_rejoin_zero_events_lost(tmp_path):
    cluster = _Cluster(tmp_path)

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
    cluster = _Cluster(tmp_path)
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
    dead_dump = load_dump(cluster.crash_dir / "node5-inc1.flightrec")
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
    cluster = _Cluster(tmp_path)
    for pt_holder in cluster.exes.values():
        pt_holder.pta.transport("faulty").plan = FaultPlan()
    cluster.fire(1, 10)
    cluster.run(ticks=30)
    assert cluster.evm.completed == 10
    assert cluster.feed.retransmissions == 0
    assert cluster.evm.reassignments == 0
    assert cluster.feed.journal_depth == 0
    cluster.assert_all_pools_clean()
