"""Retire in the journal first, in the pending table second.

``ReliableEndpoint`` used to pop ``_pending`` before it appended the
ACK record, so for one record an observer — or a crash — saw
``in_flight`` already lower while the journal still owed the message.
The order is now journal, then table, on all three retire paths (ack,
exhausted retries, peer declared dead); the crash window in between is
``post-ack-record-pre-pop`` and rides the parametrised matrices in
``test_crashpoints.py``.  On the send side the only messages in flight
the journal does not hold are the accepted batch a commit is writing.
"""

from __future__ import annotations

import pytest

from repro.analysis.crashpoints import ExecutiveCrashed, crash_at
from repro.core.reliable import CRASH_POST_ACK_RECORD
from repro.durable.segments import SegmentStore
from tests.durable.test_crashpoints import _Rig


@pytest.fixture
def watched(tmp_path, monkeypatch):
    """A rig whose sender's books are checked on entry to every journal
    append.

    Every path writes the journal before it touches the pending table,
    so on entry the two always agree: ``journal_depth >= in_flight``
    (nothing in flight is missing from the journal) and, because the
    retire is journal-first too, never more — the old pop-before-append
    order arrived at ``append_ack`` one short.  A commit's SEND batch is
    the exception by construction: on entry its sends are in flight,
    accepted, and not yet in the journal.
    """
    rig = _Rig(tmp_path)
    rig.checks = 0

    def checked(real, committing):
        def append(*args):
            unjournaled = len(args[0]) if committing else 0
            assert rig.store.depth + unjournaled >= rig.tx.in_flight
            assert rig.store.depth + unjournaled == rig.tx.in_flight
            rig.checks += 1
            real(*args)
        return append

    for name in ("append_sends", "append_ack"):
        monkeypatch.setattr(rig.store, name, checked(
            getattr(rig.store, name), name == "append_sends"))
    return rig


def test_books_agree_at_every_append_on_the_ack_path(watched):
    for burst in range(3):
        for i in range(5):
            watched.tx.send_reliable(watched.peer, b"m%d-%d" % (burst, i))
        watched.pump(ticks=2)
    assert len(watched.received) == 15
    assert watched.checks == 6  # one commit + one ACK record per burst
    assert watched.tx.in_flight == watched.store.depth == 0
    watched.assert_no_leaks()


def test_books_agree_when_retries_run_out(watched):
    failed = []
    watched.tx.on_failed = lambda seq, target, data: failed.append(
        (seq, watched.tx.in_flight, watched.store.depth)
    )
    watched.tx.max_retries = 2
    peer = watched.peer
    watched.rx_exe.uninstall(watched.rx.tid)  # nobody acks
    for i in range(3):
        watched.tx.send_reliable(peer, b"lost-%d" % i)
    watched.pump(ticks=10)
    # The application hears of each failure with both books already
    # one shorter — and equal.
    assert [seq for seq, _, _ in failed] == [1, 2, 3]
    assert all(in_flight == depth for _, in_flight, depth in failed)
    assert watched.checks == 2  # one commit + one ACK record for the batch
    assert watched.tx.in_flight == watched.store.depth == 0


def test_books_agree_when_the_peer_is_declared_dead(watched):
    peer = watched.peer
    watched.rx_exe.uninstall(watched.rx.tid)
    for i in range(4):
        watched.tx.send_reliable(peer, b"doomed-%d" % i)
    assert watched.tx.on_peer_dead(1) == 4
    assert watched.checks == 2  # one commit + one ACK record for the batch
    assert watched.tx.in_flight == watched.store.depth == 0
    watched.store.close()
    assert SegmentStore(watched.store.path).depth == 0  # nothing resurrects


def test_crash_between_retire_and_pop_owes_nothing(tmp_path):
    """The new window by itself: the ACK record is on disk, the dead
    process's table still held the entry.  Nothing replays, nothing is
    delivered twice, and the sequence space still resumes past it."""
    rig = _Rig(tmp_path)
    with crash_at(rig.tx, CRASH_POST_ACK_RECORD) as injector:
        rig.tx.send_reliable(rig.peer, b"retired-on-disk")
        with pytest.raises(ExecutiveCrashed):
            rig.pump(ticks=3)
    assert injector.fired
    assert rig.received == [b"retired-on-disk"]
    assert rig.store.depth == 0  # the journal already agrees...
    assert rig.tx.in_flight == 1  # ...the table never got to
    rig.kill_and_restart_sender()
    assert rig.tx.replayed == 0
    assert rig.tx.send_reliable(rig.peer, b"next") == 2
    rig.pump()
    assert rig.received == [b"retired-on-disk", b"next"]
    assert rig.rx.duplicates_suppressed == 0
    rig.assert_no_leaks()
