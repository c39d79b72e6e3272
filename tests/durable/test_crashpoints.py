"""The crash-point matrix: every window in the send commit path.

Each test kills the sending node at one named crash point, restarts it
from the journal, and proves the end state is *full recovery* (the
message arrives exactly once), an *explicit diagnostic* (the send call
raised before the message was accepted), or — in the one window
between accept and commit — a send no peer ever saw, whose seq the
restarted endpoint reuses.  No duplicate delivery, no leaked pool
blocks — including the dead executive's.
"""

from __future__ import annotations

import pytest

from repro.analysis.crashpoints import (
    CRASH_POINTS,
    CrashInjector,
    ExecutiveCrashed,
    crash_at,
)
from repro.core.executive import Executive
from repro.core.reliable import (
    CRASH_ACCEPTED,
    CRASH_POST_APPEND,
    CRASH_PRE_ACK_RECORD,
    CRASH_PRE_APPEND,
    ReliableEndpoint,
)
from repro.durable.journal import REC_SEND, decode_journal
from repro.durable.segments import SegmentStore
from repro.flightrec.dump import load_dump
from repro.flightrec.recorder import FlightRecorder
from repro.flightrec.records import CRASH_POINT_NAMES, EV_CRASH_POINT
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport

from tests.conftest import ManualClock


class _Rig:
    """Two-node loopback with a journaled sender that can die and be
    rebuilt at the same identity over the same journal file."""

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        # Every executive carries a black box; a dead sender's ring is
        # spilled here by hard_stop, one dump per incarnation.
        self.crash_dir = tmp_path / "crash"
        self.crash_dir.mkdir(parents=True, exist_ok=True)
        self.incarnation = 0
        self.network = LoopbackNetwork()
        self.clock = ManualClock()
        self.received: list[bytes] = []

        self.rx_exe = Executive(node=1, clock=self.clock)
        self.rx_exe.attach(FlightRecorder(
            capacity=512, dump_dir=self.crash_dir, name="rx"
        ))
        PeerTransportAgent.attach(self.rx_exe).register(
            LoopbackTransport(self.network), default=True
        )
        self.rx = ReliableEndpoint(name="rx", retransmit_ns=1000)
        self.rx.consumer = lambda src, data: self.received.append(bytes(data))
        self.rx_exe.install(self.rx)

        self.store = SegmentStore(tmp_path / "tx.journal")
        self.tx_exe, self.tx = self._build_sender(self.store)
        self.tx_tid = int(self.tx.tid)
        self.dead_exes: list[Executive] = []

    def _build_sender(self, store, tid=None):
        self.incarnation += 1
        exe = Executive(node=0, clock=self.clock)
        exe.attach(FlightRecorder(
            capacity=512, dump_dir=self.crash_dir,
            name=f"tx-inc{self.incarnation}",
        ))
        PeerTransportAgent.attach(exe).register(
            LoopbackTransport(self.network), default=True
        )
        endpoint = ReliableEndpoint(
            name="tx", retransmit_ns=1000, journal=store
        )
        exe.install(endpoint, tid=tid)
        return exe, endpoint

    @property
    def peer(self):
        return self.tx_exe.routes.create_proxy(1, self.rx.tid)

    def pump(self, ticks=20):
        """Step both executives over ``ticks`` retransmit periods, the
        first at the clock's current time: the clock only moves on."""
        exes = [self.tx_exe, self.rx_exe]
        base = self.clock.t
        for tick in range(ticks):
            self.clock.t = base + tick * 1000
            for _ in range(10):
                if not any(exe.step() for exe in exes):
                    break

    def kill_and_restart_sender(self):
        """kill -9 the sender node, then boot a replacement executive
        over the same journal file at the same TiD."""
        self.store.crash()
        self.tx_exe.hard_stop()
        self.dead_exes.append(self.tx_exe)
        self.store = SegmentStore(self.tmp_path / "tx.journal")
        self.tx_exe, self.tx = self._build_sender(self.store, tid=self.tx_tid)

    def assert_no_leaks(self):
        from repro.analysis.sanitize import assert_clean

        for exe in (self.tx_exe, self.rx_exe, *self.dead_exes):
            exe.pool.check_conservation()
            assert exe.pool.in_flight == 0, (
                f"node {exe.node} leaked {exe.pool.in_flight} blocks"
            )
            assert_clean(exe.pool)


@pytest.fixture
def rig(tmp_path):
    return _Rig(tmp_path)


class TestPreJournalAppend:
    def test_send_raises_and_nothing_replays(self, rig):
        """Dying before the append means the message was never
        accepted: the caller's exception IS the contract — explicit,
        not silent — and a restart must not resurrect anything."""
        with crash_at(rig.tx, CRASH_PRE_APPEND) as injector:
            with pytest.raises(ExecutiveCrashed) as info:
                rig.tx.send_reliable(rig.peer, b"never-accepted")
        assert injector.fired
        assert info.value.point == CRASH_PRE_APPEND
        assert rig.store.depth == 0
        assert rig.tx.in_flight == 0
        rig.kill_and_restart_sender()
        assert rig.tx.replayed == 0
        rig.pump()
        assert rig.received == []
        rig.assert_no_leaks()


class TestAcceptedPreCommit:
    def test_nothing_on_disk_nothing_sent_and_the_seq_is_reused(self, rig):
        """Accepted but never committed: no SEND record, no frame, no
        replay — and since no peer saw the seq, the restarted endpoint
        hands it to its next send, which the receiver delivers instead
        of suppressing as a duplicate."""
        rig.tx.send_reliable(rig.peer, b"first")
        rig.pump()
        (pt,) = rig.tx_exe.pta.transports()
        sent = pt.frames_sent
        with crash_at(rig.tx, CRASH_ACCEPTED) as injector:
            assert rig.tx.send_reliable(rig.peer, b"accepted-only") == 2
            with pytest.raises(ExecutiveCrashed):
                rig.pump()
        assert injector.fired
        assert rig.tx.in_flight == 1  # still accepted
        assert pt.frames_sent == sent and rig.tx_exe.msgi.idle
        rig.store.flush()
        sends = [
            r.seq for r in decode_journal(rig.store.path.read_bytes()).records
            if r.kind == REC_SEND
        ]
        assert sends == [1]
        rig.kill_and_restart_sender()
        assert rig.tx.replayed == 0
        rig.pump()
        assert rig.received == [b"first"]
        assert rig.tx.send_reliable(rig.peer, b"reused") == 2
        rig.pump()
        assert rig.received == [b"first", b"reused"]
        assert rig.rx.duplicates_suppressed == 0
        assert rig.tx.in_flight == rig.store.depth == 0
        rig.assert_no_leaks()


class TestPostAppendPreTransmit:
    def test_journaled_message_replays_exactly_once(self, rig):
        """The record hit the journal but never the wire: recovery owes
        the receiver exactly one delivery."""
        rig.tx.send_reliable(rig.peer, b"journaled-only")
        with crash_at(rig.tx, CRASH_POST_APPEND):
            with pytest.raises(ExecutiveCrashed):
                rig.tx.commit()
        assert rig.store.depth == 1
        assert rig.tx.in_flight == 0  # never entered the pending table
        rig.kill_and_restart_sender()
        assert rig.tx.replayed == 1
        assert rig.tx.recoveries == 1
        rig.pump()
        assert rig.received == [b"journaled-only"]
        assert rig.tx.in_flight == 0
        assert rig.store.depth == 0  # the replay's ack retired it
        rig.assert_no_leaks()

    def test_sequence_space_resumes_past_crashed_send(self, rig):
        rig.tx.send_reliable(rig.peer, b"before")
        rig.tx.send_reliable(rig.peer, b"crashed")
        with crash_at(rig.tx, CRASH_POST_APPEND):
            with pytest.raises(ExecutiveCrashed):
                rig.tx.commit()
        rig.kill_and_restart_sender()
        seq = rig.tx.send_reliable(rig.peer, b"after")
        assert seq == 3  # resumed past both journaled sends
        rig.pump()
        assert sorted(rig.received) == [b"after", b"before", b"crashed"]
        rig.assert_no_leaks()


class TestPostTransmitPreAckRecord:
    def test_replay_duplicate_absorbed_by_receiver(self, rig):
        """Delivered and wire-acked, but the ack record died with the
        node: replay retransmits and the receiver's dedup keeps the
        consumer at exactly one delivery."""
        with crash_at(rig.tx, CRASH_PRE_ACK_RECORD) as injector:
            rig.tx.send_reliable(rig.peer, b"acked-on-wire")
            # The crash fires inside the ack dispatch on the sender.
            with pytest.raises(ExecutiveCrashed):
                rig.pump(ticks=3)
        assert injector.fired
        assert rig.received == [b"acked-on-wire"]  # already delivered
        assert rig.store.depth == 1  # ...but never retired on disk
        rig.kill_and_restart_sender()
        assert rig.tx.replayed == 1
        rig.pump()
        assert rig.received == [b"acked-on-wire"]  # still exactly once
        assert rig.rx.duplicates_suppressed >= 1
        assert rig.store.depth == 0
        rig.assert_no_leaks()


class TestWholeMatrix:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_no_silent_loss_at_any_point(self, tmp_path, point):
        """The acceptance invariant, uniformly: at every crash point,
        either the send call raised (explicit diagnostic), the send was
        accepted and never committed (no peer saw it), or the message
        is delivered exactly once after restart."""
        rig = _Rig(tmp_path / point)
        explicit_failure = False
        with crash_at(rig.tx, point):
            try:
                rig.tx.send_reliable(rig.peer, b"matrix")
            except ExecutiveCrashed:
                explicit_failure = True
            if not explicit_failure:
                try:
                    rig.pump(ticks=3)
                except ExecutiveCrashed:
                    pass
        rig.kill_and_restart_sender()
        rig.pump()
        if explicit_failure and rig.store.depth == 0 and not rig.received:
            # pre-journal-append: refused up front, never journaled.
            assert point == CRASH_PRE_APPEND
        elif point == CRASH_ACCEPTED:
            # Accepted, never committed: no peer saw it, nothing owed.
            assert rig.received == [] and rig.tx.replayed == 0
        else:
            assert rig.received == [b"matrix"]
        assert rig.tx.in_flight == 0
        assert rig.store.depth == 0
        rig.assert_no_leaks()


class TestBlackBoxDumps:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_every_crash_point_leaves_a_decodable_dump(self, tmp_path, point):
        """After a kill at any crash point, the dead incarnation's
        black box must be on disk, decodable, and name the crash
        window it died in."""
        rig = _Rig(tmp_path)
        with crash_at(rig.tx, point):
            try:
                rig.tx.send_reliable(rig.peer, b"matrix")
                rig.pump(ticks=3)
            except ExecutiveCrashed:
                pass
        rig.kill_and_restart_sender()
        dump = load_dump(rig.crash_dir / "tx-inc1.flightrec")
        assert dump.node == 0
        assert dump.reason == "hard_stop"
        # Every window entered leaves a record; the last one is where
        # the injector actually killed the node.
        crashes = dump.of_kind(EV_CRASH_POINT)
        assert crashes
        assert CRASH_POINT_NAMES[crashes[-1].a] == point
        # The replacement incarnation spills under its own name, so
        # the post-mortem evidence is never overwritten.
        rig.tx_exe.hard_stop()
        assert (rig.crash_dir / "tx-inc2.flightrec").exists()
        assert load_dump(rig.crash_dir / "tx-inc1.flightrec").reason == "hard_stop"


class TestInjectorUnit:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            CrashInjector("between-the-keys")

    def test_at_must_be_positive(self):
        with pytest.raises(ValueError):
            CrashInjector(CRASH_PRE_APPEND, at=0)

    def test_fires_on_nth_hit_only(self):
        injector = CrashInjector(CRASH_PRE_APPEND, at=3)
        injector(CRASH_PRE_APPEND)
        injector(CRASH_POST_APPEND)  # other points don't count
        injector(CRASH_PRE_APPEND)
        assert not injector.fired
        with pytest.raises(ExecutiveCrashed):
            injector(CRASH_PRE_APPEND)
        assert injector.fired
        assert injector.hits == 3

    def test_crash_at_restores_previous_hook(self, rig):
        def sentinel(point):
            pass

        rig.tx.crash_hook = sentinel
        with crash_at(rig.tx, CRASH_PRE_APPEND):
            assert rig.tx.crash_hook is not sentinel
        assert rig.tx.crash_hook is sentinel
