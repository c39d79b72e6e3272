"""The black box wired into the executive, transports and endpoints."""

from __future__ import annotations

import pytest

from repro.analysis.sanitize import DoubleFreeError, SanitizingTableAllocator
from repro.core.device import FunctionalListener, Listener
from repro.core.executive import Executive
from repro.core.reliable import ReliableEndpoint
from repro.core.watchdog import HandlerWatchdog
from repro.flightrec import FlightRecorder, load_dump, unpack3
from repro.flightrec.recorder import MAX_INCIDENT_SPILLS
from repro.flightrec.records import (
    EV_DISPATCH,
    EV_DISPATCH_ERROR,
    EV_FRAME_ALLOC,
    EV_FRAME_INGEST,
    EV_FRAME_RELEASE,
    EV_FRAME_TRANSMIT,
    EV_HARD_STOP,
    EV_JOURNAL_COMMIT,
    EV_JOURNAL_RETIRE,
    EV_LIVENESS,
    EV_POOL_EXHAUSTED,
    EV_REL_ACK,
    EV_REL_DELIVER,
    EV_REL_RETRANSMIT,
    EV_REL_SEND,
    EV_SANITIZER,
    EV_TIMER_FIRE,
    EV_WATCHDOG_TRIP,
    LIVE_ALIVE,
    LIVE_DEAD,
    LIVE_SUSPECT,
    SAN_DOUBLE_FREE,
    FlightRecord,
)
from repro.i2o.errors import I2OError
from repro.i2o.frame import HEADER_SIZE
from repro.i2o.tid import EXECUTIVE_TID
from repro.mem.pool import BufferPool, OriginalAllocator, PoolExhausted
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport

from tests.conftest import make_loopback_cluster, pump
from tests.transports.harness import FACTORIES, Caller, Echo, make_harness


def records_of(recorder: FlightRecorder, *kinds: int) -> list[FlightRecord]:
    """The live ring (no spill needed), filtered by kind."""
    return [r for r in recorder.records if not kinds or r.kind in kinds]


def make_recorded_exe(recorder=None, **kwargs) -> Executive:
    exe = Executive(node=kwargs.pop("node", 0), **kwargs)
    exe.attach(recorder or FlightRecorder(capacity=1024))
    return exe


class TestDispatchPath:
    def test_one_dispatch_record_per_dispatch(self):
        exe = make_recorded_exe()
        echo = FunctionalListener(name="echo", handlers={0x1: lambda f: None})
        tid = exe.install(echo)
        sender = Listener("sender")
        exe.install(sender)
        sender.send(tid, b"ping", xfunction=0x1)
        exe.run_until_idle()
        dispatches = records_of(exe.flightrec, EV_DISPATCH)
        assert len(dispatches) == exe.dispatched >= 1
        # The echo dispatch: packed header carries (target, fn, xfn).
        hit = [r for r in dispatches if unpack3(r.b)[0] == int(tid)]
        assert hit and unpack3(hit[0].b)[2] == 0x1
        # Written at the end: after every record the handler caused,
        # stamped with its start, carrying its queue wait and duration.
        assert hit[0].seq == exe.flightrec.total_records - 1
        assert hit[0].c >= 0 and hit[0].d >= 0

    def test_frame_alloc_and_release_recorded(self):
        exe = make_recorded_exe()
        frame = exe.frame_alloc(16, target=EXECUTIVE_TID, initiator=EXECUTIVE_TID, xfunction=0x1)
        allocs = records_of(exe.flightrec, EV_FRAME_ALLOC)
        assert allocs and allocs[-1].a == HEADER_SIZE + 16
        assert allocs[-1].b == exe.pool.in_flight
        exe.frame_free(frame)
        assert records_of(exe.flightrec, EV_FRAME_RELEASE)

    def test_pool_exhaustion_recorded_before_raising(self):
        # Both ways a node borrows frame memory — a device's frameAlloc
        # and a peer transport's receive — write the same fact.
        exe = make_recorded_exe(
            FlightRecorder(capacity=64),
            pool=BufferPool(OriginalAllocator(block_size=64, block_count=1)),
        )
        pt = LoopbackTransport(LoopbackNetwork())
        PeerTransportAgent.attach(exe).register(pt, default=True)
        held = exe.frame_alloc(8, target=EXECUTIVE_TID, initiator=EXECUTIVE_TID, xfunction=0x1)
        borrow = {
            "frame_alloc": lambda: exe.frame_alloc(
                8, target=EXECUTIVE_TID, initiator=EXECUTIVE_TID, xfunction=0x1
            ),
            "ingest_frame_bytes": lambda: pt.ingest_frame_bytes(
                1, held.tobytes()
            ),
        }
        for entry, attempt in borrow.items():
            before = len(records_of(exe.flightrec, EV_POOL_EXHAUSTED))
            with pytest.raises(PoolExhausted):
                attempt()
            exhausted = records_of(exe.flightrec, EV_POOL_EXHAUSTED)
            assert len(exhausted) == before + 1, entry
            assert exhausted[-1].a == HEADER_SIZE + 8, entry
        exe.frame_free(held)
        exe.pool.check_conservation()

    def test_handler_exception_records_error_and_spills(self, tmp_path):
        exe = make_recorded_exe(
            FlightRecorder(capacity=64, dump_dir=tmp_path)
        )

        def boom(frame):
            if not frame.is_reply:
                raise RuntimeError("boom")

        tid = exe.install(FunctionalListener(name="bad", handlers={0x1: boom}))
        sender = Listener("sender")
        exe.install(sender)
        sender.send(tid, b"", xfunction=0x1)
        exe.run_until_idle()
        assert records_of(exe.flightrec, EV_DISPATCH_ERROR)
        dump = load_dump(exe.flightrec.dump_path())
        assert dump.reason == "dispatch-exception"
        assert dump.of_kind(EV_DISPATCH_ERROR)

    def test_failing_device_cannot_turn_spills_into_a_storm(self, tmp_path):
        # Regression: every handler error rewrote the whole dump (tmp +
        # fsync + replace) — 500 failing dispatches, 500 spills.
        exe = make_recorded_exe(
            FlightRecorder(capacity=4096, dump_dir=tmp_path)
        )

        def boom(frame):
            raise RuntimeError("boom")

        bad = FunctionalListener(name="bad", handlers={0x1: boom})
        tid = exe.install(bad)
        for _ in range(500):
            bad.send(tid, b"", xfunction=0x1)  # self-sends: no failure reply
        exe.run_until_idle()
        recorder = exe.flightrec
        assert exe.handler_errors == 500
        assert recorder.spills == MAX_INCIDENT_SPILLS
        assert recorder.suppressed_spills == 500 - MAX_INCIDENT_SPILLS
        # Every failure is still in the ring, and the count is exported.
        assert len(records_of(recorder, EV_DISPATCH_ERROR)) == 500
        snap = exe.metrics.snapshot()
        assert snap["flightrec_spills_suppressed_total"] == 496
        # The newest dump on disk still decodes, and fatal paths are
        # never capped.
        assert load_dump(recorder.dump_path()).reason == "dispatch-exception"
        exe.hard_stop()
        assert load_dump(recorder.dump_path()).reason == "hard_stop"


class TestCrashPaths:
    def test_hard_stop_spills_a_decodable_dump(self, tmp_path):
        exe = make_recorded_exe(
            FlightRecorder(capacity=64, dump_dir=tmp_path), node=5
        )
        exe.frame_alloc(8, target=EXECUTIVE_TID, initiator=EXECUTIVE_TID, xfunction=0x1)
        exe.hard_stop()
        path = tmp_path / "node005.flightrec"
        assert path.exists()
        dump = load_dump(path)
        assert dump.reason == "hard_stop"
        assert dump.of_kind(EV_HARD_STOP)
        # The drain's frame releases happen before the spill, so the
        # black box shows the full cleanup.
        assert dump.of_kind(EV_FRAME_ALLOC)

    def test_watchdog_quarantine_spills(self, tmp_path):
        import time

        exe = make_recorded_exe(
            FlightRecorder(capacity=64, dump_dir=tmp_path),
            watchdog=HandlerWatchdog(limit_ns=1_000_000),
        )

        def slow(frame):
            if not frame.is_reply:
                time.sleep(0.01)

        tid = exe.install(FunctionalListener(name="slow", handlers={0x1: slow}))
        sender = Listener("sender")
        exe.install(sender)
        sender.send(tid, b"", xfunction=0x1)
        exe.run_until_idle()
        trips = records_of(exe.flightrec, EV_WATCHDOG_TRIP)
        assert trips and trips[0].a == int(tid)
        assert load_dump(exe.flightrec.dump_path()).reason == "watchdog"

    def test_sanitizer_violation_spills_before_raising(self, tmp_path):
        exe = make_recorded_exe(
            FlightRecorder(capacity=64, dump_dir=tmp_path),
            pool=BufferPool(SanitizingTableAllocator()),
        )
        block = exe.pool.alloc(64)
        exe.pool.free(block)
        with pytest.raises(DoubleFreeError):
            exe.pool.free(block)
        violations = records_of(exe.flightrec, EV_SANITIZER)
        assert violations and violations[0].a == SAN_DOUBLE_FREE
        assert load_dump(exe.flightrec.dump_path()).reason == "sanitizer"


class TestLivenessAndTimers:
    def test_peer_transitions_recorded(self):
        exe = make_recorded_exe()
        exe.peers.watch(7)
        for _ in range(20):
            exe.peers.interval_missed(7)
        for _ in range(20):
            exe.peers.heartbeat_seen(7)
        transitions = [
            (r.a, r.b) for r in records_of(exe.flightrec, EV_LIVENESS)
        ]
        assert (7, LIVE_SUSPECT) in transitions
        assert (7, LIVE_DEAD) in transitions
        assert (7, LIVE_ALIVE) in transitions  # the rejoin

    def test_timer_fires_recorded(self):
        exe = make_recorded_exe()
        owner = exe.install(Listener("owner"))
        timer_id = exe.timers.start(owner=owner, delay_ns=0, context=99)
        exe.run_until_idle()
        fires = records_of(exe.flightrec, EV_TIMER_FIRE)
        assert fires and fires[0].a == timer_id
        assert fires[0].b == int(owner)
        assert fires[0].c == 99


class TestAttachment:
    def test_attach_twice_raises(self):
        exe = make_recorded_exe()
        with pytest.raises(I2OError, match="already has a flight recorder"):
            exe.attach(FlightRecorder(capacity=8))

    def test_recorder_adopts_node_and_clock(self):
        rec = FlightRecorder(capacity=8)
        exe = make_recorded_exe(rec, node=9)
        assert rec.node == 9
        assert rec.clock is exe.clock

    def test_detach_undoes_attach(self, tmp_path):
        # Regression: detach + attach left the old recorder's liveness
        # callbacks on exe.peers (two on_dead entries) and its spill
        # hook on the sanitizer.
        old = FlightRecorder(capacity=64, dump_dir=tmp_path / "old")
        exe = make_recorded_exe(
            old, pool=BufferPool(SanitizingTableAllocator())
        )
        exe.detach(old)
        assert exe.pool.allocator.on_violation is None
        new = exe.attach(FlightRecorder(capacity=64, dump_dir=tmp_path / "new"))
        exe.peers.watch(7)
        for _ in range(20):
            exe.peers.interval_missed(7)
        for _ in range(20):
            exe.peers.heartbeat_seen(7)
        block = exe.pool.alloc(64)
        exe.pool.free(block)
        with pytest.raises(DoubleFreeError):
            exe.pool.free(block)
        # Each transition and the violation: once, in the attached one.
        assert [(r.a, r.b) for r in records_of(new, EV_LIVENESS)] == [
            (7, LIVE_SUSPECT), (7, LIVE_DEAD), (7, LIVE_ALIVE),
        ]
        assert len(records_of(new, EV_SANITIZER)) == 1
        assert old.total_records == 0 and old.spills == 0
        assert new.spills == 1
        exe.detach(new)
        assert exe.peers._on_dead == exe.peers._on_alive == []
        assert exe.peers._on_suspect == []

    def test_accounting_gauges_exported(self):
        exe = make_recorded_exe()
        exe.frame_alloc(8, target=EXECUTIVE_TID, initiator=EXECUTIVE_TID, xfunction=0x1)
        snap = exe.metrics.snapshot()
        assert snap["flightrec_records_total"] >= 1
        assert snap["flightrec_dropped_total"] == 0
        assert snap["flightrec_spills_total"] == 0

    def test_off_mode_records_nothing(self):
        exe = Executive(node=0)
        assert exe.flightrec is None
        frame = exe.frame_alloc(8, target=EXECUTIVE_TID, initiator=EXECUTIVE_TID, xfunction=0x1)
        exe.frame_free(frame)  # no recorder: hot path is one is-None test


class TestWirePath:
    def test_transmit_and_ingest_join_across_nodes(self):
        cluster = make_loopback_cluster(2)
        for node, exe in cluster.items():
            exe.attach(FlightRecorder(capacity=256))
        received = []
        echo = FunctionalListener(
            name="echo", handlers={0x1: lambda f: received.append(bytes(f.payload))}
        )
        remote_tid = cluster[1].install(echo)
        sender = Listener("sender")
        cluster[0].install(sender)
        proxy = cluster[0].create_proxy(1, remote_tid)
        sender.send(proxy, b"over-the-wire", xfunction=0x1)
        pump(cluster)
        assert received == [b"over-the-wire"]
        transmits = records_of(cluster[0].flightrec, EV_FRAME_TRANSMIT)
        assert transmits
        dest, tid, xfn = unpack3(transmits[0].b)
        assert (dest, xfn) == (1, 0x1)
        ingests = records_of(cluster[1].flightrec, EV_FRAME_INGEST)
        assert ingests
        src, target, xfn = unpack3(ingests[0].b)
        assert (src, xfn) == (0, 0x1)
        assert ingests[0].c == transmits[0].c  # same bytes on both ends

    @pytest.mark.parametrize("transport", sorted(FACTORIES))
    def test_every_alloc_has_a_release_on_every_transport(self, transport):
        """Copy transports take a pool block at receive (tcp, simgm,
        simpci) and simgm returns the sender's at DMA completion: both
        are lifecycle facts like the executive's own, so once the
        cluster is quiet the rings balance."""
        harness = make_harness(transport)
        recorders = [
            exe.attach(FlightRecorder(capacity=1024))
            for exe in harness.exes.values()
        ]
        try:
            echo_tid = harness.exes[1].install(Echo())
            caller = Caller()
            harness.exes[0].install(caller)
            proxy = harness.exes[0].create_proxy(1, echo_tid)
            for i in range(4):
                caller.send(proxy, b"x" * (i + 1), xfunction=0x1)
            assert harness.run_until(lambda: len(caller.replies) == 4)
        finally:
            harness.finish()
        allocs = sum(len(records_of(r, EV_FRAME_ALLOC)) for r in recorders)
        releases = sum(len(records_of(r, EV_FRAME_RELEASE)) for r in recorders)
        assert allocs == releases >= 8


class _ManualClock:
    def __init__(self) -> None:
        self.t = 0

    def now_ns(self) -> int:
        return self.t


def _reliable_pair(journal_dir=None):
    """Two recorded nodes with reliable endpoints on manual clocks."""
    network = LoopbackNetwork()
    clocks, exes, endpoints = {}, {}, {}
    for node in range(2):
        clock = _ManualClock()
        exe = make_recorded_exe(
            FlightRecorder(capacity=512), node=node, clock=clock
        )
        PeerTransportAgent.attach(exe).register(
            LoopbackTransport(network), default=True
        )
        ep = ReliableEndpoint(retransmit_ns=1000, max_retries=5)
        exe.install(ep)
        if journal_dir is not None:
            from repro.durable.segments import SegmentStore

            ep.attach_journal(SegmentStore(journal_dir / f"n{node}.journal"))
        clocks[node], exes[node], endpoints[node] = clock, exe, ep
    return clocks, exes, endpoints


def _run(clocks, exes, rounds=50):
    for tick in range(rounds):
        for clock in clocks.values():
            clock.t = tick * 1000
        for _ in range(4):
            if not any(exe.step() for exe in exes.values()):
                break


class TestReliableStream:
    def test_full_stream_lifecycle_recorded(self, tmp_path):
        clocks, exes, eps = _reliable_pair(journal_dir=tmp_path)
        received = []
        eps[1].consumer = lambda src, data: received.append(data)
        peer = exes[0].create_proxy(1, eps[1].tid)
        seq = eps[0].send_reliable(peer, b"hello")
        _run(clocks, exes, rounds=5)
        assert received == [b"hello"]
        sender_rec = exes[0].flightrec
        kinds_for_seq = [
            r.kind for r in records_of(sender_rec)
            if r.kind in (
                EV_JOURNAL_COMMIT, EV_REL_SEND, EV_REL_ACK, EV_JOURNAL_RETIRE
            ) and r.a == seq
        ]
        assert kinds_for_seq == [
            EV_JOURNAL_COMMIT, EV_REL_SEND, EV_REL_ACK, EV_JOURNAL_RETIRE
        ]
        sends = [
            r for r in records_of(sender_rec, EV_REL_SEND) if r.a == seq
        ]
        assert sends[0].b == 1  # destination node rides the record
        delivers = records_of(exes[1].flightrec, EV_REL_DELIVER)
        assert [(r.a, r.b) for r in delivers] == [(seq, 0)]

    def test_retransmissions_recorded(self):
        from repro.transports.faulty import FaultPlan, FaultyLoopbackTransport

        network = LoopbackNetwork()
        clocks, exes, eps = {}, {}, {}
        for node in range(2):
            clock = _ManualClock()
            exe = make_recorded_exe(
                FlightRecorder(capacity=512), node=node, clock=clock
            )
            PeerTransportAgent.attach(exe).register(
                FaultyLoopbackTransport(
                    network, FaultPlan(drop_rate=0.4), seed=3 + node
                ),
                default=True,
            )
            ep = ReliableEndpoint(retransmit_ns=1000, max_retries=50)
            exe.install(ep)
            clocks[node], exes[node], eps[node] = clock, exe, ep
        received = []
        eps[1].consumer = lambda src, data: received.append(data)
        peer = exes[0].create_proxy(1, eps[1].tid)
        for i in range(10):
            eps[0].send_reliable(peer, b"m%d" % i)
        _run(clocks, exes, rounds=400)
        assert len(received) == 10
        assert records_of(exes[0].flightrec, EV_REL_RETRANSMIT)
