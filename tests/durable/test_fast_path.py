"""The journal's one-pass append path, its amortised compaction, one
ACK record and one write per acknowledgement frame, and one write per
group commit of SENDs.

``SegmentStore.append_*`` write a packed header and the caller's
payload straight to an unbuffered file — no ``Record`` is built.  The
bytes must be the codec's own, or none of the recovery properties in
``test_journal_props.py`` (which go through ``encode_record``) would
say anything about what the store really puts on disk.
"""

from __future__ import annotations

import ast
import inspect
import os
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reliable import XF_REL_ACK
from repro.durable.journal import (
    HEADER_SIZE,
    REC_ACK,
    REC_META,
    REC_SEND,
    Record,
    acked_seqs,
    decode_journal,
    encode_record,
    seeded_crc,
)
from repro.durable.segments import COMPACT_MIN_RECORDS, SegmentStore
from tests.durable.test_crashpoints import _Rig

u32 = st.integers(min_value=0, max_value=2**32 - 1)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
sends_st = st.lists(
    st.tuples(u64, u32, u32, st.binary(max_size=128), st.booleans()),
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(u32, u32, sends_st, st.integers(min_value=1, max_value=4))
def test_appends_write_the_codecs_bytes(
    tmp_path_factory, node, tid, sends, flush_every
):
    """What ``ensure_identity`` / ``append_send`` / ``append_ack`` leave
    on disk is byte for byte ``encode_record(Record(...))`` — whether or
    not the caller supplied the payload CRC, at any group-commit size."""
    path = tmp_path_factory.mktemp("fast") / "a.journal"
    store = SegmentStore(path, flush_every=flush_every)
    store.ensure_identity(node, tid)
    expected = [Record(kind=REC_META, seq=1, node=node, tid=tid)]
    for seq, dst_node, dst_tid, payload, with_crc in sends:
        crc = seeded_crc(seq, payload) if with_crc else None
        store.append_send(seq, dst_node, dst_tid, payload, crc)
        store.append_ack(seq)
        expected.append(Record(
            kind=REC_SEND, seq=seq, node=dst_node, tid=dst_tid,
            payload=payload,
        ))
        expected.append(Record(kind=REC_ACK, seq=seq))
    store.close()
    assert path.read_bytes() == b"".join(map(encode_record, expected))


def test_steady_window_compacts_rarely_and_stays_bounded(tmp_path):
    """16 outstanding, 10 000 messages, default store: the rewrite runs
    a handful of times, the file never passes the documented bound, and
    a reopen finds identity, sequence space and exactly the live set."""
    path = tmp_path / "steady.journal"
    store = SegmentStore(path)
    store.ensure_identity(3, 21)
    payload = b"\xa5" * 1024
    window, total = 16, 10_000
    # The trigger fires at the floor with at most half of it live, so
    # the file never holds more than the floor's worth of 1 KiB SENDs.
    bound = COMPACT_MIN_RECORDS * (HEADER_SIZE + len(payload))
    largest = 0
    for seq in range(1, total + 1):
        store.append_send(seq, 1, 7, payload)
        if seq > window:
            store.append_ack(seq - window)
        if seq % 256 == 0:
            largest = max(largest, path.stat().st_size)
    assert 1 <= store.compactions <= 10
    assert max(largest, path.stat().st_size) < bound <= 4.5 * 2**20
    live = list(range(total - window + 1, total + 1))
    assert sorted(store.pending()) == live
    store.close()

    reopened = SegmentStore(path)
    assert reopened.identity == (3, 21)
    assert reopened.recovered.next_seq == total + 1
    pending = reopened.pending()
    assert sorted(pending) == live
    assert all(
        (send.node, send.tid, send.payload) == (1, 7, payload)
        for send in pending.values()
    )
    reopened.close()


def test_append_bodies_build_no_record_objects():
    """Structural: the per-message paths pack a header and hand it on;
    no ``Record`` / ``PendingSend`` is constructed and nothing is
    ``join``ed in ``append_sends`` (``append_send`` is its one-record
    case) or ``append_ack``."""
    for method in (SegmentStore.append_sends, SegmentStore.append_ack):
        tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
        called = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        assert "encode_header" in called, method.__name__
        assert not called & {"Record", "PendingSend", "join", "encode_record"}


def test_group_commit_crash_loses_only_the_unflushed_buffer(tmp_path):
    """``flush_every=8`` over the unbuffered file: a crash drops the
    records still in the group-commit buffer and nothing else — there
    is no second user-space buffer for them to hide in or leak from."""
    path = tmp_path / "batched.journal"
    store = SegmentStore(path, flush_every=8)
    store.ensure_identity(0, 5)
    for seq in range(1, 8):
        store.append_send(seq, 1, 7, b"flushed-%d" % seq)
    # META + 7 SENDs = 8 records: the batch went out in one write.
    flushed_size = path.stat().st_size
    assert flushed_size > 0
    for seq in range(8, 13):
        store.append_send(seq, 1, 7, b"buffered-%d" % seq)
    assert path.stat().st_size == flushed_size  # nothing trickled out
    store.crash()
    assert path.stat().st_size == flushed_size

    reopened = SegmentStore(path, flush_every=8)
    assert reopened.torn_bytes_recovered == 0
    assert sorted(reopened.pending()) == list(range(1, 8))
    assert reopened.recovered.next_seq == 8
    reopened.close()


def _count_writes(monkeypatch) -> list[int]:
    """Count the store's gathered writes from here on."""
    real, calls = os.writev, []

    def writev(fd, parts):
        calls.append(fd)
        return real(fd, parts)

    monkeypatch.setattr("repro.durable.segments.os.writev", writev)
    return calls


def test_one_ack_frame_is_one_ack_record_and_one_write(tmp_path, monkeypatch):
    """The journal mirrors the wire: the receiver's one ack frame for a
    burst of 16 retires all 16 with one ACK record in one write."""
    rig = _Rig(tmp_path)
    for i in range(16):
        rig.tx.send_reliable(rig.peer, b"m%d" % i)
    rig.tx.commit()  # the SEND half's one write, not counted here
    frames, real_send = [], rig.rx.send

    def send(*args, **kw):
        frames.append(kw["xfunction"])
        return real_send(*args, **kw)

    monkeypatch.setattr(rig.rx, "send", send)
    writes = _count_writes(monkeypatch)
    rig.pump()
    assert frames == [XF_REL_ACK]
    assert len(writes) == 1
    assert rig.tx.in_flight == rig.store.depth == 0
    assert rig.store.acks_recorded == 16
    rig.store.close()
    acks = [
        acked_seqs(r) for r in decode_journal(rig.store.path.read_bytes()).records
        if r.kind == REC_ACK
    ]
    assert acks == [tuple(range(1, 17))]


def test_durable_stream_shape_writes_twice_per_burst(tmp_path, monkeypatch):
    """The benchmark's ``durable_stream`` in small: 1 KiB messages, 16
    outstanding, a default journal, both executives stepped in turn (the
    clock stands still, so nothing retransmits).  One commit write per
    burst of SENDs and one ACK write per acknowledged burst: 0.125
    writes a message, pinned at most 0.2 (2.0 while every seq had its
    own ACK record, 1.0625 while every SEND had its own write)."""
    rig = _Rig(tmp_path)
    tx, peer, payload = rig.tx, rig.peer, b"\x5a" * 1024

    def stream(messages):
        sent = 0
        while sent < messages or tx.in_flight:
            while sent < messages and tx.in_flight < 16:
                tx.send_reliable(peer, payload)
                sent += 1
            rig.tx_exe.step()
            rig.rx_exe.step()

    stream(64)
    writes = _count_writes(monkeypatch)
    stream(1600)
    assert len(rig.received) == 1664
    assert tx.retransmissions == rig.rx.duplicates_suppressed == 0
    assert rig.store.depth == 0
    assert len(writes) / 1600 <= 0.2
    rig.assert_no_leaks()
