"""The flight recorder ring, the dump codec and its integrity checks."""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.flightrec.dump import describe_dump, load_dump
from repro.flightrec.recorder import DUMP_HEADER, DUMP_HEADER_SIZE, FlightRecorder
from repro.flightrec.records import (
    EV_DISPATCH,
    EV_DISPATCH_ERROR,
    EV_HARD_STOP,
    EV_LIVENESS,
    EV_REL_SEND,
    EV_TIMER_FIRE,
    RECORD_SIZE,
    RECORD_STRUCT,
    FlightRecError,
    FlightRecord,
    pack3,
    unpack3,
)

from tests.conftest import ManualClock


class TestRecordCodec:
    def test_record_is_48_bytes(self):
        assert RECORD_SIZE == 48
        assert RECORD_STRUCT.size == 48

    def test_pack_unpack_round_trip(self):
        record = FlightRecord(
            seq=7, t_ns=123456789, a=0xACE0_0000_0000_0001,
            b=pack3(3, 16, 0xF001), c=64, kind=EV_REL_SEND,
        )
        raw = record.pack()
        assert len(raw) == RECORD_SIZE
        assert FlightRecord(*RECORD_STRUCT.unpack(raw)) == record

    def test_pack3_round_trip(self):
        assert unpack3(pack3(5, 16, 0xF001)) == (5, 16, 0xF001)
        assert unpack3(pack3(0xFFFFFFFF, 0xFFFF, 0xFFFF)) == (
            0xFFFFFFFF, 0xFFFF, 0xFFFF,
        )

    def test_describe_is_symbolic(self):
        record = FlightRecord(
            seq=0, t_ns=0, a=9, b=2, c=32, kind=EV_REL_SEND
        )
        assert "rel-send" in record.describe()
        assert "seq=9" in record.describe()
        assert "dest=node2" in record.describe()

    def test_unknown_kind_still_describes(self):
        record = FlightRecord(seq=0, t_ns=0, a=0, b=0, c=0, kind=200)
        assert "unknown(200)" in record.describe()


class TestRing:
    def test_records_before_wrap_kept_in_order(self):
        rec = FlightRecorder(node=1, capacity=8, clock=ManualClock())
        for i in range(5):
            rec.record(EV_TIMER_FIRE, i)
        assert rec.total_records == 5
        assert rec.stored_records == 5
        assert rec.dropped_records == 0
        body = rec.ring_bytes()
        seqs = [
            RECORD_STRUCT.unpack_from(body, i * RECORD_SIZE)[0]
            for i in range(5)
        ]
        assert seqs == [0, 1, 2, 3, 4]

    def test_out_of_range_argument_wraps_instead_of_raising(self):
        """The hot path packs unmasked; a value outside u64 (a negative
        duration under a manual clock, an oversized kind) still lands,
        wrapped, and never raises into the fabric."""
        rec = FlightRecorder(node=1, capacity=4, clock=ManualClock())
        rec.record(EV_TIMER_FIRE, -1, 1 << 64, 2, t_ns=-5)
        rec.record(0x1FF, 7)
        first, second = rec.records
        assert (first.a, first.b, first.c) == ((1 << 64) - 1, 0, 2)
        assert first.t_ns == (1 << 64) - 5 and first.kind == EV_TIMER_FIRE
        assert (second.seq, second.kind, second.a) == (1, 0xFF, 7)

    def test_wrap_drops_oldest_first(self):
        rec = FlightRecorder(node=1, capacity=4, clock=ManualClock())
        for i in range(10):
            rec.record(EV_TIMER_FIRE, i)
        assert rec.total_records == 10
        assert rec.stored_records == 4
        assert rec.dropped_records == 6
        body = rec.ring_bytes()
        rows = [
            RECORD_STRUCT.unpack_from(body, i * RECORD_SIZE)
            for i in range(4)
        ]
        assert [row[0] for row in rows] == [6, 7, 8, 9]  # oldest first
        assert [row[2] for row in rows] == [6, 7, 8, 9]  # a tracks i

    def test_no_allocation_per_record(self):
        rec = FlightRecorder(node=1, capacity=16, clock=ManualClock())
        ring = rec._ring
        for i in range(100):
            rec.record(EV_TIMER_FIRE, i)
        assert rec._ring is ring  # written in place, never reallocated

    def test_capacity_validated(self):
        with pytest.raises(FlightRecError):
            FlightRecorder(node=1, capacity=0)

    def test_timestamps_use_the_given_clock(self):
        clock = ManualClock()
        rec = FlightRecorder(node=1, capacity=4, clock=clock)
        clock.t = 777
        rec.record(EV_TIMER_FIRE, 1)
        assert RECORD_STRUCT.unpack_from(rec.ring_bytes(), 0)[1] == 777

    def test_explicit_t_ns_skips_the_clock_read(self):
        rec = FlightRecorder(node=1, capacity=4, clock=ManualClock())
        rec.record(EV_DISPATCH, t_ns=42)
        assert RECORD_STRUCT.unpack_from(rec.ring_bytes(), 0)[1] == 42


class TestSpillAndLoad:
    def test_dump_round_trip(self, tmp_path):
        clock = ManualClock()
        rec = FlightRecorder(
            node=3, capacity=8, dump_dir=tmp_path, clock=clock
        )
        clock.t = 10
        rec.record(EV_DISPATCH_ERROR, 0xACE, 5)
        clock.t = 20
        rec.record(EV_DISPATCH, 0xACE, 5, 10, d=1 << 55)
        rec.record(EV_HARD_STOP)
        path = rec.spill("hard_stop")
        assert path is not None and path.exists()
        assert path.name == "node003.flightrec"
        dump = load_dump(path)
        assert dump.node == 3
        assert dump.capacity == 8
        assert dump.total == 3
        assert dump.dropped == 0
        assert dump.reason == "hard_stop"
        kinds = [r.kind for r in dump.records]
        assert kinds == [EV_DISPATCH_ERROR, EV_DISPATCH, EV_HARD_STOP]
        assert dump.records[1].t_ns == 20
        assert (dump.records[1].c, dump.records[1].d) == (10, 1 << 55)

    def test_dump_after_wrap_reports_drops(self, tmp_path):
        rec = FlightRecorder(
            node=1, capacity=4, dump_dir=tmp_path, clock=ManualClock()
        )
        for i in range(9):
            rec.record(EV_TIMER_FIRE, i)
        dump = load_dump(rec.spill("test"))
        assert dump.total == 9
        assert len(dump.records) == 4
        assert dump.dropped == 5
        assert [r.a for r in dump.records] == [5, 6, 7, 8]

    def test_respill_replaces_atomically(self, tmp_path):
        rec = FlightRecorder(
            node=1, capacity=4, dump_dir=tmp_path, clock=ManualClock()
        )
        rec.record(EV_TIMER_FIRE, 1)
        rec.spill("first")
        rec.record(EV_TIMER_FIRE, 2)
        rec.spill("second")
        assert rec.spills == 2
        dump = load_dump(rec.dump_path())
        assert dump.reason == "second"
        assert len(dump.records) == 2
        assert not list(tmp_path.glob("*.tmp"))  # tmp file replaced away

    def test_custom_name_controls_the_filename(self, tmp_path):
        rec = FlightRecorder(
            node=1, capacity=4, dump_dir=tmp_path,
            clock=ManualClock(), name="feed-incarnation2",
        )
        rec.record(EV_TIMER_FIRE, 1)
        assert rec.spill("x").name == "feed-incarnation2.flightrec"

    def test_spill_without_dump_dir_is_a_noop(self):
        rec = FlightRecorder(node=1, capacity=4, clock=ManualClock())
        rec.record(EV_TIMER_FIRE, 1)
        assert rec.spill("x") is None
        assert rec.spills == 0

    def test_liveness_record_decodes(self, tmp_path):
        rec = FlightRecorder(
            node=1, capacity=4, dump_dir=tmp_path, clock=ManualClock()
        )
        rec.record(EV_LIVENESS, 7, 2)  # node 7 -> DEAD
        dump = load_dump(rec.spill("x"))
        assert "peer=node7 -> DEAD" in dump.records[0].describe()

    def test_describe_dump_lists_every_record(self, tmp_path):
        rec = FlightRecorder(
            node=1, capacity=4, dump_dir=tmp_path, clock=ManualClock()
        )
        rec.record(EV_TIMER_FIRE, 3)
        rec.record(EV_HARD_STOP)
        text = describe_dump(load_dump(rec.spill("boom")))
        assert "reason 'boom'" in text
        assert "timer-fire" in text
        assert "hard-stop" in text


class TestDumpIntegrity:
    def _dump(self, tmp_path):
        rec = FlightRecorder(
            node=1, capacity=4, dump_dir=tmp_path, clock=ManualClock()
        )
        rec.record(EV_TIMER_FIRE, 1)
        rec.record(EV_TIMER_FIRE, 2)
        return rec.spill("x")

    def test_truncated_header_refused(self, tmp_path):
        path = self._dump(tmp_path)
        path.write_bytes(path.read_bytes()[: DUMP_HEADER_SIZE - 1])
        with pytest.raises(FlightRecError, match="too short"):
            load_dump(path)

    def test_bad_magic_refused(self, tmp_path):
        path = self._dump(tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FlightRecError, match="magic"):
            load_dump(path)

    def test_torn_body_refused(self, tmp_path):
        path = self._dump(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])  # not a whole record
        with pytest.raises(FlightRecError, match="torn"):
            load_dump(path)

    def test_flipped_record_byte_fails_crc(self, tmp_path):
        path = self._dump(tmp_path)
        data = bytearray(path.read_bytes())
        data[DUMP_HEADER_SIZE + 16] ^= 0x01  # corrupt a record argument
        path.write_bytes(bytes(data))
        with pytest.raises(FlightRecError, match="CRC"):
            load_dump(path)

    def test_wrong_record_size_refused(self, tmp_path):
        path = self._dump(tmp_path)
        data = bytearray(path.read_bytes())
        fields = list(DUMP_HEADER.unpack_from(data, 0))
        fields[3] = 56  # claim a different record size
        struct.pack_into(
            DUMP_HEADER.format, data, 0, *fields[:-1], fields[-1]
        )
        path.write_bytes(bytes(data))
        with pytest.raises(FlightRecError, match="record size"):
            load_dump(path)

    def test_header_body_count_mismatch_refused(self, tmp_path):
        path = self._dump(tmp_path)
        data = bytearray(path.read_bytes())
        # Drop one whole record but leave the header claiming two;
        # recompute the CRC so only the count check can complain.
        body = bytes(data[DUMP_HEADER_SIZE:-RECORD_SIZE])
        fields = list(DUMP_HEADER.unpack_from(data, 0))
        fields[7] = zlib.crc32(body)
        path.write_bytes(DUMP_HEADER.pack(*fields) + body)
        with pytest.raises(FlightRecError, match="stored"):
            load_dump(path)
