"""Reliable delivery over adversarial transports."""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executive import Executive
from repro.core.reliable import MAX_ACK_SEQS, XF_REL_ACK, ReliableEndpoint
from repro.i2o.errors import I2OError
from repro.transports.agent import PeerTransportAgent
from repro.transports.faulty import FaultPlan, FaultyLoopbackTransport
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport

from tests.conftest import ManualClock


def build_pair(plan: FaultPlan | None = None, *, seed: int = 1,
               max_retries: int = 50, ordered: bool = False):
    """Two nodes with reliable endpoints; manual clocks drive timers."""
    network = LoopbackNetwork()
    clocks, exes, endpoints = {}, {}, {}
    for node in range(2):
        clock = ManualClock()
        exe = Executive(node=node, clock=clock)
        pta = PeerTransportAgent.attach(exe)
        if plan is None:
            pta.register(LoopbackTransport(network), default=True)
        else:
            pta.register(
                FaultyLoopbackTransport(network, plan, seed=seed + node),
                default=True,
            )
        clocks[node], exes[node] = clock, exe
        ep = ReliableEndpoint(retransmit_ns=1000, max_retries=max_retries,
                              ordered=ordered)
        exe.install(ep)
        endpoints[node] = ep
    return clocks, exes, endpoints


def run(clocks, exes, rounds: int = 400) -> None:
    """Pump the cluster, advancing virtual time so timers fire.

    Tick 0 pumps without advancing the clock, so in-flight exchanges
    complete 'instantly' before any retransmit deadline can pass —
    the loss-free path must see zero retransmissions.
    """
    for tick in range(rounds):
        for clock in clocks.values():
            clock.t = tick * 1000
        for _ in range(4):
            if not any(exe.step() for exe in exes.values()):
                break


class TestLossFreePath:
    def test_single_message_delivered_and_acked(self):
        clocks, exes, eps = build_pair()
        received = []
        eps[1].consumer = lambda src, data: received.append(data)
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        eps[0].send_reliable(peer, b"hello")
        run(clocks, exes, rounds=10)
        assert received == [b"hello"]
        assert eps[0].in_flight == 0
        assert eps[0].retransmissions == 0

    def test_sequences_are_distinct(self):
        clocks, exes, eps = build_pair()
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        seqs = [eps[0].send_reliable(peer, b"m") for _ in range(5)]
        assert len(set(seqs)) == 5
        run(clocks, exes, rounds=10)


class TestLossyPath:
    @pytest.mark.parametrize("drop", [0.2, 0.5])
    def test_all_messages_delivered_exactly_once(self, drop):
        plan = FaultPlan(drop_rate=drop)
        clocks, exes, eps = build_pair(plan, max_retries=200)
        received = []
        eps[1].consumer = lambda src, data: received.append(data)
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        messages = [f"msg-{i}".encode() for i in range(40)]
        for m in messages:
            eps[0].send_reliable(peer, m)
        run(clocks, exes, rounds=3000)
        assert sorted(received) == sorted(messages)  # exactly once
        assert eps[0].in_flight == 0
        assert eps[0].retransmissions > 0  # drops actually happened

    def test_duplicates_suppressed(self):
        plan = FaultPlan(duplicate_rate=0.8)
        clocks, exes, eps = build_pair(plan)
        received = []
        eps[1].consumer = lambda src, data: received.append(data)
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        for i in range(20):
            eps[0].send_reliable(peer, f"d{i}".encode())
        run(clocks, exes, rounds=100)
        assert len(received) == 20
        assert eps[1].duplicates_suppressed > 0

    def test_reordering_tolerated(self):
        plan = FaultPlan(delay_rate=0.5)
        clocks, exes, eps = build_pair(plan)
        received = []
        eps[1].consumer = lambda src, data: received.append(data)
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        messages = [f"r{i}".encode() for i in range(25)]
        for m in messages:
            eps[0].send_reliable(peer, m)
        run(clocks, exes, rounds=500)
        assert sorted(received) == sorted(messages)

    def test_total_loss_reports_failure(self):
        plan = FaultPlan(drop_rate=1.0)
        clocks, exes, eps = build_pair(plan, max_retries=3)
        failures = []
        eps[0].on_failed = lambda seq, target, payload: failures.append(seq)
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        seq = eps[0].send_reliable(peer, b"doomed")
        run(clocks, exes, rounds=50)
        assert failures == [seq]
        assert eps[0].in_flight == 0
        assert eps[0].failures == 1

    def test_corrupted_copies_discarded_and_retransmitted(self):
        """A flipped byte anywhere in a data or ack frame fails the
        endpoint's CRC: the copy is dropped (never delivered as
        garbage, never acked at the wrong seq) and the sender's timer
        recovers with a clean retransmission."""
        plan = FaultPlan(corrupt_rate=0.3, drop_rate=0.2)
        clocks, exes, eps = build_pair(plan, max_retries=100)
        received = []
        eps[1].consumer = lambda src, data: received.append(bytes(data))
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        messages = [f"c{i}".encode() for i in range(20)]
        for m in messages:
            eps[0].send_reliable(peer, m)
        run(clocks, exes, rounds=2000)
        assert sorted(received) == sorted(messages)  # intact, exactly once
        assert eps[0].in_flight == 0
        assert eps[1].corrupt_discarded > 0  # corruption really happened


class TestOrderedMode:
    def test_reordered_wire_delivers_in_sequence(self):
        plan = FaultPlan(delay_rate=0.5, drop_rate=0.2)
        clocks, exes, eps = build_pair(plan, max_retries=200, ordered=True)
        received = []
        eps[1].consumer = lambda src, data: received.append(bytes(data))
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        messages = [f"o{i:02d}".encode() for i in range(30)]
        for m in messages:
            eps[0].send_reliable(peer, m)
        run(clocks, exes, rounds=2000)
        assert received == messages  # exact send order, exactly once
        assert eps[1].held_back == 0

    def test_gap_holds_back_later_messages(self):
        clocks, exes, eps = build_pair(ordered=True)
        received = []
        eps[1].consumer = lambda src, data: received.append(bytes(data))
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        # Lose seq 1's first copy on the wire, deliver 2 and 3: a gap.
        eps[0].send_reliable(peer, b"first")
        pt1 = exes[1].pta.transport("loopback")
        for _ in range(10):
            exes[0].step()
            if pt1._staged:
                break
        pt1._staged.clear()          # the wire eats seq 1
        for payload in (b"second", b"third"):
            eps[0].send_reliable(peer, payload)
        for _ in range(100):         # pump without advancing the clock:
            if not any(e.step() for e in exes.values()):
                break                # no retransmit deadline can pass
        assert received == []
        assert eps[1].held_back == 2
        run(clocks, exes, rounds=20)  # retransmit timer resends seq 1
        assert received == [b"first", b"second", b"third"]
        assert eps[1].held_back == 0


class TestJournaledEndpoint:
    def test_acked_stream_retires_the_journal(self, tmp_path):
        from repro.durable.journal import (
            REC_ACK,
            REC_META,
            REC_SEND,
            acked_seqs,
            decode_journal,
        )
        from repro.durable.segments import SegmentStore

        clocks, exes, eps = build_pair()
        store = SegmentStore(tmp_path / "tx.journal")
        eps[0].attach_journal(store)
        received = []
        eps[1].consumer = lambda src, data: received.append(bytes(data))
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        messages = [f"j{i}".encode() for i in range(5)]
        for m in messages:
            eps[0].send_reliable(peer, m)
        assert store.depth == 0  # accepted, not yet journaled
        assert eps[0].commit() == 5
        assert store.depth == 5  # write-ahead: journaled at commit
        run(clocks, exes, rounds=10)
        assert received == messages
        assert store.depth == 0
        assert store.acks_recorded == 5
        store.close()
        records = decode_journal(store.path.read_bytes()).records
        kinds = [r.kind for r in records]
        assert kinds.count(REC_META) == 1
        assert kinds.count(REC_SEND) == 5
        # One ACK record per ack frame: together they name each seq once.
        retired = [
            seq for r in records if r.kind == REC_ACK for seq in acked_seqs(r)
        ]
        assert sorted(retired) == [1, 2, 3, 4, 5]

    def test_second_journal_refused(self, tmp_path):
        from repro.durable.segments import SegmentStore

        clocks, exes, eps = build_pair()
        eps[0].attach_journal(SegmentStore(tmp_path / "a.journal"))
        with pytest.raises(I2OError):
            eps[0].attach_journal(SegmentStore(tmp_path / "b.journal"))

    def test_exhausted_retries_retire_the_record(self, tmp_path):
        """A message reported dead through on_failed must not
        resurrect when the endpoint later restarts."""
        from repro.durable.segments import SegmentStore

        plan = FaultPlan(drop_rate=1.0)
        clocks, exes, eps = build_pair(plan, max_retries=2)
        store = SegmentStore(tmp_path / "tx.journal")
        eps[0].attach_journal(store)
        failures = []
        eps[0].on_failed = lambda seq, target, payload: failures.append(seq)
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        eps[0].send_reliable(peer, b"doomed")
        run(clocks, exes, rounds=50)
        assert len(failures) == 1
        assert store.depth == 0


class TestAbortPayloadSnapshot:
    def test_on_failed_payload_survives_pool_recycling(self):
        """Regression: the payload handed to ``on_failed`` at abort
        time must be a private snapshot.  A caller that sent a view
        into a pool frame and then freed the frame must not see the
        sanitizer's poison pattern (or another message's bytes) in the
        failure report."""
        from repro.analysis.sanitize import SanitizingTableAllocator
        from repro.mem.pool import BufferPool

        network = LoopbackNetwork()
        clock0 = ManualClock()
        exes, eps = {}, {}
        for node in range(2):
            exe = Executive(
                node=node, clock=clock0,
                pool=BufferPool(SanitizingTableAllocator()),
            )
            PeerTransportAgent.attach(exe).register(
                LoopbackTransport(network), default=True
            )
            ep = ReliableEndpoint(retransmit_ns=1000)
            exe.install(ep)
            exes[node], eps[node] = exe, ep

        pattern = bytes(range(64))
        block = exes[0].pool.alloc(len(pattern))
        block.memory[: len(pattern)] = pattern
        reports = []
        eps[0].on_failed = (
            lambda seq, target, payload: reports.append(bytes(payload))
        )
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        eps[0].send_reliable(peer, block.memory[: len(pattern)])
        exes[0].pool.free(block)  # sanitizer poisons the freed block
        # Supervision declares the peer dead: the pending message is
        # aborted and reported — with the original bytes, not poison.
        assert eps[0].on_peer_dead(1) == 1
        assert reports == [pattern]
        # Drain staged traffic from the initial transmit (and the ack
        # it provokes) so the conservation check sees a settled wire.
        for _ in range(100):
            if not any(exe.step() for exe in exes.values()):
                break
        for exe in exes.values():
            exe.pool.check_conservation()
            assert exe.pool.in_flight == 0


class TestPoolHygiene:
    def test_no_leaks_after_lossy_run(self):
        plan = FaultPlan(drop_rate=0.4, duplicate_rate=0.2)
        clocks, exes, eps = build_pair(plan, max_retries=100)
        eps[1].consumer = lambda src, data: None
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        for i in range(30):
            eps[0].send_reliable(peer, bytes(50))
        run(clocks, exes, rounds=2000)
        for exe in exes.values():
            exe.pool.check_conservation()
            assert exe.pool.in_flight == 0


class TestBurstAcks:
    def test_one_ack_frame_answers_a_burst(self):
        clocks, exes, eps = build_pair()
        exes[1].max_dispatch_per_step = 2 * MAX_ACK_SEQS  # one step
        received = []
        eps[1].consumer = lambda src, data: received.append(data)
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        for i in range(MAX_ACK_SEQS + 5):
            eps[0].send_reliable(peer, b"b%d" % i)
        exes[0].run_until_idle()
        exes[1].step()  # the whole burst arrives; one flush is armed
        run(clocks, exes, rounds=10)
        assert len(received) == MAX_ACK_SEQS + 5
        assert eps[0].in_flight == 0
        (pt,) = exes[1].pta.transports()
        assert pt.frames_sent == 2  # one full ack, one with the rest

    def test_one_retransmit_timer_per_endpoint(self):
        clocks, exes, eps = build_pair(FaultPlan(drop_rate=1.0))
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        for i in range(10):
            eps[0].send_reliable(peer, b"m%d" % i)
        assert len(exes[0].timers) == 1
        run(clocks, exes, rounds=3)
        assert eps[0].retransmissions == 20
        assert len(exes[0].timers) == 1
        assert eps[0].on_peer_dead(1) == 10
        assert len(exes[0].timers) == 0  # disarmed when nothing is owed

    def test_every_frame_duplicated_delivers_exactly_once(self):
        """A duplicated data frame makes the next ack name its seq
        twice, and the duplicated ack names every seq again: the
        sender retires each seq once and skips the rest."""
        clocks, exes, eps = build_pair(FaultPlan(duplicate_rate=1.0))
        received = []
        eps[1].consumer = lambda src, data: received.append(bytes(data))
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        messages = [b"x%d" % i for i in range(40)]
        for m in messages:
            eps[0].send_reliable(peer, m)
        run(clocks, exes, rounds=20)
        assert received == messages
        assert eps[1].duplicates_suppressed >= 40
        assert eps[0].in_flight == 0
        assert eps[0].corrupt_discarded == eps[1].corrupt_discarded == 0
        assert [exe.handler_errors for exe in exes.values()] == [0, 0]


class TestReplug:
    """The executive carries an endpoint's timers through uninstall +
    install (same ids, the delay each had left), so a re-plugged
    endpoint still retransmits what it owes and flushes the acks it
    owes, with no re-arm code of its own."""

    def test_replugged_sender_retransmits_what_it_owes(self):
        clocks, exes, eps = build_pair(FaultPlan())
        (pt,) = exes[0].pta.transports()
        received, failed = [], []
        eps[1].consumer = lambda src, data: received.append(bytes(data))
        eps[0].on_failed = lambda seq, target, data: failed.append(seq)
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        pt.partition()
        eps[0].send_reliable(peer, b"owed")
        run(clocks, exes, rounds=1)
        tid = eps[0].tid
        exes[0].uninstall(tid)
        exes[0].install(eps[0], tid=tid)
        pt.heal()
        run(clocks, exes, rounds=200)
        assert received == [b"owed"]
        assert eps[0].in_flight == 0
        assert eps[0].retransmissions >= 1
        assert failed == []

    def test_replugged_receiver_acks_again(self):
        """The receiver unplugged with an ack flush armed: the stale
        handle must not stop its acks for good."""
        clocks, exes, eps = build_pair()
        received = []
        eps[1].consumer = lambda src, data: received.append(bytes(data))
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        eps[0].send_reliable(peer, b"first")
        exes[0].step()  # transmit
        exes[1].step()  # deliver; the ack flush is armed, not yet sent
        assert received == [b"first"]
        tid = eps[1].tid
        exes[1].uninstall(tid)
        exes[1].install(eps[1], tid=tid)
        run(clocks, exes, rounds=20)
        assert eps[0].in_flight == 0
        assert received == [b"first"]  # the retransmission was deduped


def _ack(seqs):
    body = struct.pack(f"<{len(seqs)}Q", *seqs)
    return struct.pack("<II", len(seqs), zlib.crc32(body)) + body


def _valid(payload):
    """An independent reading of the ack format."""
    if len(payload) < 8:
        return False
    count, crc = struct.unpack_from("<II", payload)
    return (0 < count <= MAX_ACK_SEQS and len(payload) == 8 + 8 * count
            and zlib.crc32(payload[8:]) == crc)


_OWED = (1, 2, 3, 4)
_MUTATIONS = (
    "none", "count", "crc", "truncate", "flip", "oversized", "unknown",
    "twice",
)


@st.composite
def _hostile_acks(draw):
    """A valid ack over owed and unknown seqs, then one mutation;
    returns (payload, refused?, seqs a correct endpoint retires)."""
    named = draw(st.lists(
        st.sampled_from(_OWED + (0, 5, 99, 2**64 - 1)),
        min_size=1, max_size=8,
    ))
    mutation = draw(st.sampled_from(_MUTATIONS))
    if mutation == "unknown":
        named = [(seq + 100) % 2**64 for seq in named]
    elif mutation == "twice":
        named = named + named[:1]
    payload = bytearray(_ack(named))
    if mutation == "count":
        wrong = draw(st.sampled_from((0, 2**32 - 1, len(named) + 1,
                                      len(named) - 1)))
        struct.pack_into("<I", payload, 0, wrong)
    elif mutation == "crc":
        payload[4 + draw(st.integers(0, 3))] ^= 1 << draw(st.integers(0, 7))
    elif mutation == "truncate":
        del payload[draw(st.integers(0, len(payload) - 1)):]
    elif mutation == "flip":
        payload[draw(st.integers(0, len(payload) - 1))] ^= draw(
            st.integers(1, 255))
    elif mutation == "oversized":
        payload = bytearray(_ack([_OWED[0]] * (MAX_ACK_SEQS + 1)))
    refused = mutation not in ("none", "unknown", "twice")
    return bytes(payload), refused, (
        set() if refused else set(named) & set(_OWED))


class TestHostileAcks:
    """Every malformed ack is refused by name (``corrupt_discarded``)
    or changes nothing; only validly named pending seqs retire."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_hostile_acks())
    def test_mutated_ack(self, case):
        payload, refused, retired = case
        assert _valid(payload) is not refused
        clocks, exes, eps = build_pair(FaultPlan())
        (pt,) = exes[0].pta.transports()
        peer = exes[0].routes.create_proxy(1, eps[1].tid)
        pt.partition()  # the data never arrives, so nothing is acked
        for seq in _OWED:
            assert eps[0].send_reliable(peer, b"p%d" % seq) == seq
        run(clocks, exes, rounds=1)
        pt.heal()
        sender = exes[1].routes.create_proxy(0, eps[0].tid)
        eps[1].send(sender, payload, xfunction=XF_REL_ACK)
        run(clocks, exes, rounds=1)  # before any retransmit is due
        assert set(eps[0]._pending) == set(_OWED) - retired
        assert eps[0].corrupt_discarded == int(refused)
        assert exes[0].handler_errors == 0

