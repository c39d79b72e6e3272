"""Group commit of the journal's SEND half.

A journaled ``ReliableEndpoint`` accepts a send (seq, payload snapshot,
wire CRC) and leaves its record and frame to ``commit()``, which writes
every accepted SEND with one journal call and posts the frames only
after that write.  These tests hold it to its two rules — no data frame
for seq *s* is handed to a transport before SEND(*s*) decodes from the
file, and a commit that did not write posts nothing — and to the
journal having one writer while another thread sends.
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.crashpoints import ExecutiveCrashed
from repro.core.reliable import (
    MAX_RELIABLE_PAYLOAD,
    XF_REL_DATA,
    ReliableEndpoint,
)
from repro.durable.journal import (
    HEADER_SIZE,
    REC_SEND,
    JournalError,
    decode_journal,
)
from repro.durable.replay import replay_records
from repro.durable.segments import SegmentStore
from repro.i2o.errors import I2OError
from repro.transports.loopback import LoopbackTransport
from tests.durable.test_crashpoints import _Rig
from tests.transports.harness import make_harness

WRITEV = "repro.durable.segments.os.writev"


@pytest.fixture
def rig(tmp_path):
    return _Rig(tmp_path)


def _sends_on_file(path) -> list[int]:
    return [
        r.seq for r in decode_journal(path.read_bytes()).records
        if r.kind == REC_SEND
    ]


def _failing_writev(failure: str):
    real = os.writev

    def writev(fd, parts):
        if failure == "short":
            return real(fd, [b"".join(parts)[:40]])
        raise OSError(errno.ENOSPC, "No space left on device")

    return writev


def _advance(rig: _Rig, ticks: int) -> None:
    """Move the shared clock on by ``ticks`` retransmit periods, pumping
    both executives to idle after each (``_Rig.pump`` restarts at 0)."""
    exes = [rig.tx_exe, rig.rx_exe]
    for _ in range(ticks):
        rig.clock.t += 1000
        while any(exe.step() for exe in exes):
            pass


def test_a_send_reported_failed_is_never_delivered_after_restart(rig):
    """A message the application was told had failed must not replay.
    The journal used to keep a SEND whose write raised in the buffer it
    retries, so the next flush (an ACK's) wrote it and a restart
    delivered it.  Now a send is accepted whatever the disk does; a
    refused commit keeps it, and it is delivered exactly once."""
    rig.tx.send_reliable(rig.peer, b"first")
    told_failed = False
    with mock.patch(WRITEV, _failing_writev("no space")):
        try:
            rig.tx.send_reliable(rig.peer, b"REFUSED")
        except OSError:
            told_failed = True
        _advance(rig, 3)
    _advance(rig, 3)
    rig.kill_and_restart_sender()
    rig.pump()
    assert rig.received.count(b"REFUSED") == (0 if told_failed else 1)
    assert not told_failed
    assert rig.received == [b"first", b"REFUSED"]
    assert rig.tx.in_flight == rig.store.depth == 0
    rig.assert_no_leaks()


@pytest.mark.parametrize("failure", ["short", "no space"])
def test_a_failed_commit_posts_no_frame_and_is_retried_whole(
    rig, failure
):
    """A short write or ENOSPC: the commit raises, the file is taken back
    to where it was, no frame is posted, and the retry the failure arms
    writes each SEND once and then sends the batch."""
    batch = [b"m0", b"m1", b"m2"]
    for payload in batch:
        rig.tx.send_reliable(rig.peer, payload)
    path = rig.store.path
    size = path.stat().st_size
    (pt,) = rig.tx_exe.pta.transports()
    with mock.patch(WRITEV, _failing_writev(failure)):
        with pytest.raises(JournalError if failure == "short" else OSError):
            rig.tx.commit()
        assert rig.tx_exe.msgi.idle and pt.frames_sent == 0
        assert path.stat().st_size == size
        assert rig.tx.in_flight == 3 and rig.tx.commit_failures == 1
        _advance(rig, 3)  # the retries fail too: one a tick, each reported
        assert rig.received == [] and pt.frames_sent == 0
        assert rig.tx_exe.handler_errors >= 3
        assert rig.tx.commit_failures == 1 + rig.tx_exe.handler_errors
    _advance(rig, 1)
    assert rig.received == batch
    assert rig.tx.in_flight == rig.store.depth == 0
    rig.store.close()
    assert decode_journal(path.read_bytes()).torn_bytes == 0
    assert _sends_on_file(path) == [1, 2, 3]  # none written twice
    rig.assert_no_leaks()


def test_a_torn_commit_leaves_a_record_aligned_prefix_and_sent_nothing(
    tmp_path,
):
    """The process dies after the first ``k`` bytes of a three-SEND
    commit reach the file, for every ``k``.  The reopened segment is
    META plus the SENDs that landed whole; no frame of the batch was
    posted; the whole ones replay exactly once and the rest are sends no
    peer saw, whose seqs the next sends reuse."""
    batch = [b"a" * 5, b"b" * 8, b"c" * 11]
    sizes = [HEADER_SIZE + len(payload) for payload in batch]
    for k in range(sum(sizes)):
        rig = _Rig(tmp_path / f"k{k}")
        base = rig.store.path.stat().st_size  # the META record
        for payload in batch:
            rig.tx.send_reliable(rig.peer, payload)
        real = os.writev

        def torn(fd, parts, k=k):
            real(fd, [b"".join(parts)[:k]])
            raise ExecutiveCrashed("torn commit")

        with mock.patch(WRITEV, torn):
            with pytest.raises(ExecutiveCrashed):
                rig.tx.commit()
        (pt,) = rig.tx_exe.pta.transports()
        assert rig.tx_exe.msgi.idle and pt.frames_sent == 0
        whole = sum(1 for i in range(len(sizes)) if sum(sizes[:i + 1]) <= k)
        rig.kill_and_restart_sender()
        assert rig.store.torn_bytes_recovered == k - sum(sizes[:whole])
        assert rig.store.path.stat().st_size == base + sum(sizes[:whole])
        assert sorted(rig.store.pending()) == list(range(1, whole + 1))
        assert rig.tx.replayed == whole
        rig.pump()
        assert rig.received == batch[:whole]
        assert rig.tx.send_reliable(rig.peer, b"next") == whole + 1
        rig.pump()
        assert rig.received == [*batch[:whole], b"next"]
        assert rig.tx.in_flight == rig.store.depth == 0
        rig.assert_no_leaks()


def test_a_payload_no_frame_can_carry_is_refused_at_accept(rig):
    """Accepting it would journal a message ``commit()`` could never
    post: it is refused before it takes a seq."""
    with pytest.raises(I2OError):
        rig.tx.send_reliable(rig.peer, bytes(MAX_RELIABLE_PAYLOAD + 1))
    assert rig.tx.in_flight == 0
    assert rig.tx.send_reliable(rig.peer, bytes(MAX_RELIABLE_PAYLOAD)) == 1
    rig.pump()
    assert [len(m) for m in rig.received] == [MAX_RELIABLE_PAYLOAD]
    rig.assert_no_leaks()


class _WriteAheadWatch:
    """Checks, at every data frame a loopback transport is handed, that
    the frame's SEND record decodes from the journal file; drops the
    first data frame and then a seeded share."""

    def __init__(self, path, drop_rate: float, seed: int) -> None:
        self.path, self.drop_rate = path, drop_rate
        self.rng = random.Random(seed)
        self.checked = 0
        self.real = LoopbackTransport.transmit

    def __call__(self, pt, frame, route):
        if frame.xfunction == XF_REL_DATA and not frame.is_reply:
            seq = int.from_bytes(bytes(frame.payload[:8]), "little")
            assert seq in _sends_on_file(self.path), f"seq {seq} left first"
            self.checked += 1
            if self.checked == 1 or self.rng.random() < self.drop_rate:
                pt.release_staged(pt.make_handoff(frame))
                return
        self.real(pt, frame, route)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    before=st.lists(st.integers(1, 20), min_size=1, max_size=3),
    at_kill=st.integers(1, 20),
    after=st.lists(st.integers(1, 20), max_size=3),
    drop_rate=st.sampled_from([0.0, 0.1, 0.3]),
    seed=st.integers(0, 2**16),
)
def test_no_data_frame_leaves_before_its_send_record(
    tmp_path_factory, before, at_kill, after, drop_rate, seed
):
    """Write-ahead on every transmit: first sends, retransmissions (the
    first data frame is always dropped) and the replay after a kill with
    a committed burst unacknowledged."""
    rig = _Rig(tmp_path_factory.mktemp("wal"))
    watch = _WriteAheadWatch(rig.store.path, drop_rate, seed)
    messages = []

    def burst(count):
        for _ in range(count):
            messages.append(b"m%d" % len(messages))
            rig.tx.send_reliable(rig.peer, messages[-1])

    with mock.patch.object(
        LoopbackTransport, "transmit",
        lambda pt, frame, route: watch(pt, frame, route),
    ):
        for count in before:
            burst(count)
            _advance(rig, 2)
        retransmitted = rig.tx.retransmissions
        burst(at_kill)
        rig.tx.commit()
        rig.kill_and_restart_sender()
        assert rig.tx.replayed >= at_kill
        for count in after:
            burst(count)
            _advance(rig, 2)
        watch.drop_rate = 0.0
        _advance(rig, 30)
    assert retransmitted >= 1
    assert sorted(rig.received) == sorted(messages)
    assert len(rig.received) == len(messages)
    assert watch.checked >= len(messages) + 1
    assert rig.tx.in_flight == rig.store.depth == 0
    rig.assert_no_leaks()


def test_one_journal_writer_while_another_thread_sends(tmp_path):
    """The test thread sends while the executives' threads deliver, ack
    and retire: the accepted batch crosses threads and only the sender's
    executive thread writes the store.  Every seq is delivered once, the
    journal decodes clean and nothing is left live."""
    harness = make_harness("tcp")
    try:
        rx = ReliableEndpoint(name="rx", retransmit_ns=10**15)
        received = []
        rx.consumer = lambda src, data: received.append(bytes(data))
        harness.exes[1].install(rx)
        store = SegmentStore(tmp_path / "tx.journal")
        tx = ReliableEndpoint(name="tx", retransmit_ns=10**15, journal=store)
        harness.exes[0].install(tx)
        peer = harness.exes[0].routes.create_proxy(1, rx.tid)
        total, window = 2000, 64
        writers: set[str] = set()
        real = os.writev

        def writev(fd, parts):
            writers.add(threading.current_thread().name)
            return real(fd, parts)

        with mock.patch(WRITEV, writev):
            deadline = time.monotonic() + 30
            for i in range(total):
                while tx.in_flight >= window:
                    assert time.monotonic() < deadline, "stream stalled"
                    time.sleep(0.0002)
                tx.send_reliable(peer, b"%d" % i)
            assert harness.run_until(
                lambda: len(received) == total
                and tx.in_flight == 0 and store.depth == 0
            ), f"{len(received)}/{total} delivered, {tx.in_flight} in flight"
        assert sorted(received) == sorted(b"%d" % i for i in range(total))
        assert threading.current_thread().name not in writers
        assert tx.commit_failures == 0
        for exe in harness.exes.values():
            exe.stop()
        harness.exes[0].uninstall(tx.tid)
        harness.exes[1].uninstall(rx.tid)
        for exe in harness.exes.values():
            exe.start()
        store.close()
        result = decode_journal(store.path.read_bytes())
        assert result.torn_bytes == 0
        state = replay_records(result.records)
        assert state.pending == {} and state.next_seq == total + 1
    finally:
        harness.finish()
