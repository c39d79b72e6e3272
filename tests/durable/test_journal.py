"""Journal codec and on-disk store units."""

from __future__ import annotations

import errno
import os

import pytest

from repro.durable.journal import (
    HEADER_SIZE,
    MAX_RECORD_PAYLOAD,
    REC_ACK,
    REC_META,
    REC_SEND,
    JournalCorruption,
    JournalError,
    Record,
    acked_seqs,
    decode_journal,
    encode_record,
    seeded_crc,
)
from repro.durable.replay import replay_records
from repro.durable.segments import SegmentStore, SnapshotStore


#: Journal records carry the *destination* TiD as plain data; these
#: stand in for TiDs some peer allocated.
PEER_TID = 9


def _send(seq, payload=b"x", node=1, tid=7):
    return Record(kind=REC_SEND, seq=seq, node=node, tid=tid, payload=payload)


class TestCodec:
    def test_round_trip(self):
        records = [
            Record(kind=REC_META, seq=5, node=0, tid=PEER_TID),
            _send(5, b"hello"),
            Record(kind=REC_ACK, seq=5),
        ]
        data = b"".join(encode_record(r) for r in records)
        result = decode_journal(data)
        assert result.records == records
        assert result.consumed == len(data)
        assert not result.truncated

    def test_empty_journal(self):
        result = decode_journal(b"")
        assert result.records == []
        assert result.consumed == 0

    def test_wire_crc_is_the_journal_crc(self):
        # One integrity discipline end to end: the reliable endpoint's
        # wire CRC and the journal's payload CRC are the same function.
        from repro.core.reliable import _data_crc

        assert _data_crc is seeded_crc

    def test_encode_rejects_unknown_kind(self):
        with pytest.raises(JournalError):
            encode_record(Record(kind=0x7F, seq=1))

    def test_encode_rejects_oversize_payload(self):
        with pytest.raises(JournalError):
            encode_record(_send(1, b"\0" * (MAX_RECORD_PAYLOAD + 1)))

    def test_torn_header_is_truncation_not_error(self):
        data = encode_record(_send(1)) + encode_record(_send(2))[: HEADER_SIZE - 4]
        result = decode_journal(data)
        assert [r.seq for r in result.records] == [1]
        assert result.truncated
        assert result.torn_bytes == HEADER_SIZE - 4

    def test_torn_payload_is_truncation_not_error(self):
        whole = encode_record(_send(1, b"abcdef"))
        data = whole + encode_record(_send(2, b"abcdef"))[:-3]
        result = decode_journal(data)
        assert [r.seq for r in result.records] == [1]
        assert result.truncated
        assert result.consumed == len(whole)

    def test_header_corruption_raises_with_offset(self):
        first = encode_record(_send(1))
        damaged = bytearray(first + encode_record(_send(2)))
        damaged[len(first) + 2] ^= 0xFF  # inside record 2's header
        with pytest.raises(JournalCorruption) as info:
            decode_journal(bytes(damaged))
        assert info.value.offset == len(first)
        assert [r.seq for r in info.value.partial] == [1]

    def test_payload_corruption_raises(self):
        damaged = bytearray(encode_record(_send(1, b"payload-bytes")))
        damaged[HEADER_SIZE + 3] ^= 0x01
        with pytest.raises(JournalCorruption) as info:
            decode_journal(bytes(damaged))
        assert "payload CRC" in str(info.value)

    def test_corrupt_length_cannot_masquerade_as_torn_tail(self):
        # A lying payload_len is covered by the header CRC, so the
        # reader reports corruption instead of silently truncating a
        # record that is actually damaged.
        damaged = bytearray(encode_record(_send(1, b"abc")))
        damaged[17] = 0xEE  # payload_len field (offset 17..20)
        with pytest.raises(JournalCorruption):
            decode_journal(bytes(damaged))

    def test_single_seq_ack_is_the_old_record(self):
        # Byte for byte what every earlier journal holds: an old
        # journal's ACKs decode (and fold) exactly as they always did.
        data = encode_record(Record(kind=REC_ACK, seq=5))
        assert data.hex() == (
            "0205000000000000000000000000000000000000007fb176e3f59a2c26"
        )
        (record,) = decode_journal(data).records
        assert acked_seqs(record) == (5,)

    def test_ack_payload_not_whole_u64s_refused_by_name(self):
        # Both CRCs verify: the damage is a list no writer produces.
        first = encode_record(_send(1))
        bad = encode_record(Record(kind=REC_ACK, seq=2, payload=b"\x01" * 12))
        with pytest.raises(JournalCorruption) as info:
            decode_journal(first + bad)
        assert info.value.offset == len(first)
        assert info.value.reason == "ACK payload of 12 bytes is not whole u64 seqs"
        assert [r.seq for r in info.value.partial] == [1]


class TestReplayFold:
    def test_acks_retire_sends(self):
        records = [
            _send(1, b"a"),
            _send(2, b"b"),
            Record(kind=REC_ACK, seq=1),
            _send(3, b"c"),
        ]
        state = replay_records(records)
        assert sorted(state.pending) == [2, 3]
        assert state.next_seq == 4
        assert state.acked == 1

    def test_meta_raises_floor_and_sets_identity(self):
        state = replay_records(
            [Record(kind=REC_META, seq=41, node=2, tid=PEER_TID)]
        )
        assert state.pending == {}
        assert state.next_seq == 41
        assert state.identity == (2, PEER_TID)

    def test_ack_without_send_is_legal(self):
        # Compaction drops dead SEND+ACK pairs; an ACK surviving alone
        # (e.g. appended right after a compaction boundary) is fine.
        state = replay_records([Record(kind=REC_ACK, seq=10)])
        assert state.pending == {}


class TestSegmentStore:
    def test_fresh_store_is_empty(self, tmp_path):
        store = SegmentStore(tmp_path / "a.journal")
        assert store.depth == 0
        assert store.recovered.next_seq == 1
        store.close()

    def test_append_and_reopen_replays_unacked(self, tmp_path):
        path = tmp_path / "a.journal"
        store = SegmentStore(path)
        store.ensure_identity(0, 5)
        store.append_send(1, 1, 7, b"one")
        store.append_send(2, 1, 7, b"two")
        store.append_ack(1)
        store.close()
        reopened = SegmentStore(path)
        assert sorted(reopened.pending()) == [2]
        assert reopened.pending()[2].payload == b"two"
        assert reopened.recovered.next_seq == 3
        assert reopened.identity == (0, 5)
        reopened.close()

    def test_identity_mismatch_refused(self, tmp_path):
        path = tmp_path / "a.journal"
        store = SegmentStore(path)
        store.ensure_identity(0, 5)
        store.close()
        reopened = SegmentStore(path)
        with pytest.raises(JournalError, match="TiD 5"):
            reopened.ensure_identity(0, 6)
        reopened.close()

    def test_torn_tail_truncated_on_disk(self, tmp_path):
        path = tmp_path / "a.journal"
        store = SegmentStore(path)
        store.append_send(1, 1, 7, b"whole")
        store.close()
        with open(path, "ab") as fh:
            fh.write(encode_record(_send(2, b"never-finished"))[:-4])
        reopened = SegmentStore(path)
        assert sorted(reopened.pending()) == [1]
        assert reopened.torn_bytes_recovered > 0
        # The tail was cut off the file itself: appends land aligned
        # and a third open sees a clean journal.
        reopened.append_send(3, 1, 7, b"after")
        reopened.close()
        third = SegmentStore(path)
        assert sorted(third.pending()) == [1, 3]
        assert third.torn_bytes_recovered == 0
        third.close()

    def test_corrupt_file_refuses_to_open(self, tmp_path):
        path = tmp_path / "a.journal"
        store = SegmentStore(path)
        store.append_send(1, 1, 7, b"payload")
        store.close()
        damaged = bytearray(path.read_bytes())
        damaged[HEADER_SIZE + 2] ^= 0x10
        path.write_bytes(bytes(damaged))
        with pytest.raises(JournalCorruption):
            SegmentStore(path)

    def test_batched_flush_crash_loses_only_the_buffer(self, tmp_path):
        path = tmp_path / "a.journal"
        store = SegmentStore(path, flush_every=10)
        store.append_send(1, 1, 7, b"flushed")
        store.flush()
        store.append_send(2, 1, 7, b"buffered")
        store.crash()  # process death: user-space buffer is gone
        reopened = SegmentStore(path)
        assert sorted(reopened.pending()) == [1]
        reopened.close()

    def test_compaction_drops_dead_records(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.durable.segments.COMPACT_MIN_RECORDS", 8)
        path = tmp_path / "a.journal"
        store = SegmentStore(path)
        store.ensure_identity(0, 5)
        for seq in range(1, 7):
            store.append_send(seq, 1, 7, b"p" * 64)
        size_before = path.stat().st_size
        for seq in range(1, 6):
            store.append_ack(seq)
        assert store.compactions >= 1
        assert path.stat().st_size < size_before
        assert sorted(store.pending()) == [6]
        store.close()
        # The compacted segment still carries identity and seq floor.
        reopened = SegmentStore(path)
        assert reopened.identity == (0, 5)
        assert reopened.recovered.next_seq == 7
        assert sorted(reopened.pending()) == [6]
        reopened.close()

    def test_multi_seq_ack_is_one_record(self, tmp_path):
        store = SegmentStore(tmp_path / "a.journal", flush_every=2)
        for seq in range(1, 5):
            store.append_send(seq, 1, 7, b"p")
        store.append_ack(3, 1, 3, 8)  # a repeat, and one never sent
        assert store.acks_recorded == 4
        assert sorted(store.pending()) == [2, 4]
        store.append_send(5, 1, 7, b"p")  # the ACK counted once: flushed
        store.crash()
        reopened = SegmentStore(store.path)
        assert sorted(reopened.pending()) == [2, 4, 5]
        reopened.close()

    @pytest.mark.parametrize("iov_max, failing_call, failure", [
        (1024, 1, "short"), (2, 2, "short"), (2, 2, "no space"),
    ])
    def test_failed_flush_leaves_the_segment_record_aligned(
        self, tmp_path, monkeypatch, iov_max, failing_call, failure
    ):
        """A flush that writes short, or fails outright, takes its bytes
        back off the file — those of earlier whole chunks too — so the
        buffer it keeps is retried as whole records, not appended after
        a torn one or after a copy of its own head."""
        path = tmp_path / "a.journal"
        store = SegmentStore(path, flush_every=3)
        store.ensure_identity(0, 5)
        store.append_send(1, 1, 7, b"a" * 64)
        store.append_send(2, 1, 7, b"b" * 64)  # flushed whole
        real, calls = os.writev, []

        def writev(fd, parts):
            calls.append(fd)
            if len(calls) != failing_call:
                return real(fd, parts)
            if failure == "short":
                return real(fd, [b"".join(parts)[:40]])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.durable.segments._IOV_MAX", iov_max)
        monkeypatch.setattr("repro.durable.segments.os.writev", writev)
        store.append_send(3, 1, 7, b"c" * 64)
        store.append_send(4, 1, 7, b"d" * 64)
        with pytest.raises(JournalError if failure == "short" else OSError):
            store.append_send(5, 1, 7, b"e" * 64)
        assert len(calls) == failing_call
        monkeypatch.undo()
        store.close()  # retries the kept buffer
        result = decode_journal(path.read_bytes())
        assert result.torn_bytes == 0
        assert [(r.kind, r.seq) for r in result.records] == [
            (REC_META, 1), *((REC_SEND, seq) for seq in range(1, 6))
        ]

    def test_closed_store_refuses_appends(self, tmp_path):
        store = SegmentStore(tmp_path / "a.journal")
        store.close()
        with pytest.raises(JournalError):
            store.append_send(1, 0, 0, b"")

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(JournalError):
            SegmentStore(tmp_path / "a.journal", flush_every=0)


class TestSnapshotStore:
    def test_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path / "evm.snapshot")
        assert store.load() is None
        store.save({"version": 1, "assigned": {"3": 1}})
        assert store.exists()
        assert store.load() == {"version": 1, "assigned": {"3": 1}}

    def test_save_replaces_atomically(self, tmp_path):
        store = SnapshotStore(tmp_path / "evm.snapshot")
        store.save({"n": 1})
        store.save({"n": 2})
        assert store.load() == {"n": 2}
        assert store.saves == 2
        assert not (tmp_path / "evm.snapshot.tmp").exists()

    def test_corrupt_snapshot_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "evm.snapshot")
        store.save({"n": 1})
        data = bytearray(store.path.read_bytes())
        data[-1] ^= 0x01
        store.path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruption):
            store.load()

    def test_truncated_snapshot_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "evm.snapshot")
        store.save({"long": "x" * 100})
        store.path.write_bytes(store.path.read_bytes()[:-10])
        with pytest.raises(JournalCorruption):
            store.load()

    def test_clear(self, tmp_path):
        store = SnapshotStore(tmp_path / "evm.snapshot")
        store.save({"n": 1})
        store.clear()
        assert store.load() is None
        store.clear()  # idempotent
