"""Merging per-node dumps into one causal cluster timeline."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tracing import make_trace_id
from repro.flightrec.dump import load_dump, load_dumps
from repro.flightrec.recorder import FlightRecorder
from repro.flightrec.records import (
    DISPATCH_RELEASED,
    EV_DISPATCH,
    EV_FRAME_RELEASE,
    EV_FRAME_TRANSMIT,
    EV_HARD_STOP,
    EV_REL_ACK,
    EV_REL_DELIVER,
    EV_REL_RETRANSMIT,
    EV_REL_SEND,
    EV_SLOW_FRAME,
    FlightRecord,
    pack3,
)
from repro.flightrec.timeline import (
    Hop,
    MergedTimeline,
    dispatch_percentiles,
    frame_releases,
    in_flight_sends,
    project_hops,
)
from repro.i2o.function_codes import PRIVATE, UTIL_PARAMS_GET

from tests.conftest import ManualClock


def _dump(tmp_path, node, events, name=None):
    """Spill `(t_ns, kind, a, b, c[, d])` tuples as node `node`'s black
    box."""
    clock = ManualClock()
    rec = FlightRecorder(
        node=node, capacity=64, dump_dir=tmp_path,
        clock=clock, name=name or f"n{node}",
    )
    for t_ns, kind, a, b, c, *d in events:
        clock.t = t_ns
        rec.record(kind, a, b, c, d=d[0] if d else 0)
    return load_dump(rec.spill("test"))


class TestMergeOrdering:
    def test_events_interleave_across_nodes_by_time(self, tmp_path):
        a = _dump(tmp_path, 1, [(10, EV_REL_SEND, 1, 2, 8),
                                (30, EV_REL_ACK, 1, 0, 0)])
        b = _dump(tmp_path, 2, [(20, EV_REL_DELIVER, 1, 1, 8)])
        timeline = MergedTimeline([a, b])
        assert [(e.node, e.record.t_ns) for e in timeline.events] == [
            (1, 10), (2, 20), (1, 30),
        ]
        assert timeline.nodes == [1, 2]

    def test_time_ties_break_by_node_then_seq(self, tmp_path):
        a = _dump(tmp_path, 2, [(5, EV_HARD_STOP, 0, 0, 0)])
        b = _dump(tmp_path, 1, [(5, EV_REL_SEND, 1, 2, 8),
                                (5, EV_REL_SEND, 2, 2, 8)])
        timeline = MergedTimeline([b, a])
        assert [(e.node, e.record.seq) for e in timeline.events] == [
            (1, 0), (1, 1), (2, 0),
        ]


class TestStreamJoin:
    def test_stream_follows_one_seq_across_nodes(self, tmp_path):
        sender = _dump(tmp_path, 1, [
            (10, EV_REL_SEND, 7, 2, 16),
            (11, EV_REL_SEND, 8, 2, 16),       # different seq, excluded
            (20, EV_REL_RETRANSMIT, 7, 2, 0),
            (40, EV_REL_ACK, 7, 0, 0),
        ])
        receiver = _dump(tmp_path, 2, [(30, EV_REL_DELIVER, 7, 1, 16)])
        timeline = MergedTimeline([sender, receiver])
        hops = timeline.stream(sender=1, seq=7)
        assert [(e.node, e.record.kind) for e in hops] == [
            (1, EV_REL_SEND),
            (1, EV_REL_RETRANSMIT),
            (2, EV_REL_DELIVER),
            (1, EV_REL_ACK),
        ]
        assert timeline.delivered(1, 2, 7)
        assert not timeline.delivered(1, 2, 8)


class TestTraceJoin:
    def test_trace_follows_a_trace_id_across_nodes(self, tmp_path):
        ctx = make_trace_id(1, 42)
        sender = _dump(tmp_path, 1, [
            (10, EV_FRAME_TRANSMIT, ctx, pack3(2, 8, 0xF001), 64),
        ])
        receiver = _dump(tmp_path, 2, [
            (20, EV_DISPATCH, ctx, pack3(8, 1, 0xF001), 0, 5),
        ])
        timeline = MergedTimeline([sender, receiver])
        hops = timeline.trace(ctx)
        assert [(e.node, e.record.kind) for e in hops] == [
            (1, EV_FRAME_TRANSMIT),
            (2, EV_DISPATCH),
        ]
        assert timeline.gaps() == []


class TestHopProjection:
    """A hop is a projection of one traced ``dispatch`` record."""

    CTX = make_trace_id(1, 7)
    TID = 17
    HDR = pack3(TID, 0xFF, 0x102)

    def _records(self, tmp_path, events):
        return _dump(tmp_path, 3, events).records

    def test_dispatch_record_becomes_one_hop(self, tmp_path):
        # Written when the dispatch is over: after the records made
        # inside it, carrying its start time, queue wait and duration.
        records = self._records(tmp_path, [
            (150, EV_FRAME_RELEASE, self.CTX, 0, 0),
            (100, EV_DISPATCH, self.CTX, self.HDR, 40, 60),
        ])
        assert project_hops(3, records) == [Hop(
            trace_id=self.CTX, seq=1, node=3, tid=self.TID, function=0xFF,
            xfunction=0x102, start_ns=100, queue_wait_ns=40, dispatch_ns=60,
        )]

    def test_untraced_and_unpaired_records_project_nothing(self, tmp_path):
        records = self._records(tmp_path, [
            # an untraced dispatch (timer context) ...
            (10, EV_DISPATCH, 0x5EE9, self.HDR, 0, 10),
            # ... and the other facts of a traced frame, which the node
            # died before dispatching.
            (30, EV_FRAME_RELEASE, self.CTX, 0, 0),
            (40, EV_FRAME_TRANSMIT, self.CTX, pack3(2, 8, 0x102), 64),
        ])
        assert project_hops(3, records) == []

    def test_merge_orders_hops_across_nodes(self, tmp_path):
        a = _dump(tmp_path, 1, [
            (100, EV_DISPATCH, self.CTX, self.HDR, 0, 10),
            (300, EV_DISPATCH, self.CTX, self.HDR, 0, 10),
        ])
        b = _dump(tmp_path, 2, [
            (200, EV_DISPATCH, self.CTX, self.HDR, 0, 10),
        ])
        merged = MergedTimeline([a, b])
        assert merged.trace_ids() == [self.CTX]
        assert [(h.node, h.start_ns) for h in merged.hops(self.CTX)] == [
            (1, 100), (2, 200), (1, 300),
        ]
        assert merged.hops(0xDEAD) == []

    def test_live_recorders_merge_like_their_dumps(self, tmp_path):
        clock = ManualClock()
        live = FlightRecorder(
            node=4, capacity=8, dump_dir=tmp_path, clock=clock, name="live"
        )
        for t in range(12):  # wraps: the projection sees what a dump would
            clock.t = t
            live.record(EV_REL_SEND, t, 2, 8)
        dumped = load_dump(live.spill("test"))
        assert live.records == dumped.records
        assert [e.record for e in MergedTimeline([live]).events] == [
            e.record for e in MergedTimeline([dumped]).events
        ]

    def test_load_dumps_expands_directories(self, tmp_path):
        _dump(tmp_path, 2, [(1, EV_HARD_STOP, 0, 0, 0)], name="b")
        _dump(tmp_path, 1, [(1, EV_HARD_STOP, 0, 0, 0)], name="a")
        (tmp_path / "notes.txt").write_text("not a dump")
        assert [d.node for d in load_dumps([tmp_path])] == [1, 2]
        assert [d.node for d in load_dumps([tmp_path / "b.flightrec"])] == [2]


class TestDispatchPercentiles:
    """Dispatch latency is a projection of the same ``dispatch``
    records: exact nearest-rank percentiles of the durations of the
    ``PRIVATE`` ones."""

    PRIVATE_HDR = pack3(5, PRIVATE, 0x1)

    @classmethod
    def _stream(cls, durations):
        """A ``PRIVATE`` dispatch record per duration — every other one
        carrying the loop's release — each followed by records of other
        kinds, and by a management dispatch, that carry a duration-sized
        argument too."""
        records = []
        for d in durations:
            seq = len(records)
            released = DISPATCH_RELEASED if seq % 2 else 0
            records.append(FlightRecord(seq, seq, 0, cls.PRIVATE_HDR, released,
                                        EV_DISPATCH, d))
            records.append(FlightRecord(seq + 1, seq, 0, 0, 10**9, EV_SLOW_FRAME))
            records.append(FlightRecord(seq + 2, seq, 0, 0, 0, EV_REL_SEND, 10**9))
            records.append(FlightRecord(seq + 3, seq, 0,
                                        pack3(5, UTIL_PARAMS_GET, 0), 0,
                                        EV_DISPATCH, 10**9))
        return records

    def test_nearest_rank_reads_recorded_durations(self):
        records = self._stream([40, 10, 30, 20])
        assert dispatch_percentiles(records, (25, 50, 51, 99, 100)) == [
            10, 20, 30, 40, 40,
        ]
        assert dispatch_percentiles(self._stream([7]), (1, 50, 99)) == [7, 7, 7]
        assert dispatch_percentiles(self._stream([]), (50, 99)) == []

    def test_a_ring_yields_its_window_only(self):
        clock = ManualClock()
        ring = FlightRecorder(node=1, capacity=8, clock=clock)
        for d in range(20, 0, -1):  # the slow ones first, then overwritten
            ring.record(EV_DISPATCH, 0, self.PRIVATE_HDR, 0, d=d)
        assert dispatch_percentiles(ring.records, (50, 99)) == [4, 8]

    @settings(max_examples=80, deadline=None)
    @given(
        durations=st.lists(st.integers(0, (1 << 56) - 1), max_size=40),
        percents=st.lists(st.integers(1, 100), min_size=1, max_size=5),
    )
    def test_smallest_duration_that_covers_p_percent(self, durations, percents):
        got = dispatch_percentiles(self._stream(durations), percents)
        if not durations:
            assert got == []
            return
        n = len(durations)
        assert got == [
            min(d for d in durations
                if 100 * sum(x <= d for x in durations) >= p * n)
            for p in percents
        ]


class TestFrameReleases:
    def test_counts_release_records_and_released_dispatches(self):
        hdr = pack3(5, PRIVATE, 0x1)
        records = [
            FlightRecord(0, 0, 0, 0, 0, EV_FRAME_RELEASE),
            FlightRecord(1, 0, 0, hdr, 7 | DISPATCH_RELEASED, EV_DISPATCH, 9),
            FlightRecord(2, 0, 0, hdr, 7, EV_DISPATCH, 9),  # RETAINed
            FlightRecord(3, 0, 0, 0, DISPATCH_RELEASED, EV_REL_SEND),
        ]
        assert frame_releases(records) == 2
        assert frame_releases([]) == 0

    def test_the_release_bit_is_not_queue_wait(self):
        trace = make_trace_id(1, 1)
        hdr = pack3(5, PRIVATE, 0x1)
        released = FlightRecord(0, 100, trace, hdr, 40 | DISPATCH_RELEASED,
                                EV_DISPATCH, 60)
        (hop,) = project_hops(3, [released])
        assert (hop.queue_wait_ns, hop.dispatch_ns) == (40, 60)
        assert released.describe().endswith("waited=40ns took=60ns released")


class TestGaps:
    def test_send_with_no_deliver_anywhere_is_a_gap(self, tmp_path):
        sender = _dump(tmp_path, 1, [
            (10, EV_REL_SEND, 7, 2, 16),
            (20, EV_REL_SEND, 8, 2, 16),
        ])
        receiver = _dump(tmp_path, 2, [(30, EV_REL_DELIVER, 7, 1, 16)])
        gaps = MergedTimeline([sender, receiver]).gaps()
        assert len(gaps) == 1
        gap = gaps[0]
        assert gap.kind == "send-no-deliver"
        assert gap.node == 1
        assert gap.record.a == 8
        assert "rel seq 8" in gap.describe()

    def test_traced_transmit_with_no_remote_dispatch_is_a_gap(self, tmp_path):
        ctx = make_trace_id(1, 9)
        sender = _dump(tmp_path, 1, [
            (10, EV_FRAME_TRANSMIT, ctx, pack3(2, 8, 0xF001), 64),
            # A local dispatch of the same ctx must NOT count as arrival.
            (11, EV_DISPATCH, ctx, pack3(8, 1, 0xF001), 0, 5),
        ])
        gaps = MergedTimeline([sender]).gaps()
        assert [g.kind for g in gaps] == ["transmit-no-dispatch"]
        assert "never dispatched remotely" in gaps[0].describe()

    def test_untraced_transmit_contexts_are_ignored(self, tmp_path):
        # Plain application contexts (small ints) can collide across
        # nodes; only 0xACE-tagged trace ids join transmits.
        sender = _dump(tmp_path, 1, [
            (10, EV_FRAME_TRANSMIT, 5, pack3(2, 8, 0xF001), 64),
        ])
        assert MergedTimeline([sender]).gaps() == []

    def test_describe_renders_events_and_gaps(self, tmp_path):
        sender = _dump(tmp_path, 1, [(10, EV_REL_SEND, 7, 2, 16)])
        text = MergedTimeline([sender]).describe()
        assert "1 dump(s)" in text
        assert "rel-send" in text
        assert "1 gap(s)" in text


class TestInFlightSends:
    def test_unacked_sends_survive(self, tmp_path):
        dump = _dump(tmp_path, 1, [
            (10, EV_REL_SEND, 1, 2, 8),
            (11, EV_REL_SEND, 2, 2, 8),
            (12, EV_REL_SEND, 3, 2, 8),
            (20, EV_REL_ACK, 1, 0, 0),
            (30, EV_REL_RETRANSMIT, 3, 2, 0),
        ])
        pending = in_flight_sends(dump)
        assert [r.a for r in pending] == [2, 3]
        # Seq 3's latest sighting is the retransmit, not the send.
        assert pending[1].kind == EV_REL_RETRANSMIT

    def test_fully_acked_dump_has_nothing_in_flight(self, tmp_path):
        dump = _dump(tmp_path, 1, [
            (10, EV_REL_SEND, 1, 2, 8),
            (20, EV_REL_ACK, 1, 0, 0),
        ])
        assert in_flight_sends(dump) == []


class TestCli:
    def test_decode_prints_symbolic_records(self, tmp_path, capsys):
        from repro.diag import main

        _dump(tmp_path, 5, [(10, EV_HARD_STOP, 0, 0, 0)], name="node005")
        assert main(["timeline", str(tmp_path / "node005.flightrec")]) == 0
        out = capsys.readouterr().out
        assert "hard-stop" in out
        assert "node 5" in out or "node005" in out or "node=5" in out

    def test_merge_reports_gaps_and_in_flight(self, tmp_path, capsys):
        from repro.diag import main

        _dump(tmp_path, 1, [
            (10, EV_REL_SEND, 13, 2, 8),
            (11, EV_REL_SEND, 14, 2, 8),
        ], name="n1")
        _dump(tmp_path, 2, [(20, EV_REL_DELIVER, 13, 1, 8)], name="n2")
        code = main([
            "timeline",
            str(tmp_path / "n1.flightrec"),
            str(tmp_path / "n2.flightrec"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "send->no-deliver" in out
        assert "in flight when node 1 spilled" in out
        assert "13, 14" in out

    def test_bad_file_exits_2(self, tmp_path, capsys):
        from repro.diag import main

        bogus = tmp_path / "bogus.flightrec"
        bogus.write_bytes(b"not a dump")
        assert main(["timeline", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        from repro.diag import main

        assert main(["timeline", str(tmp_path / "absent.flightrec")]) == 2
        assert "error:" in capsys.readouterr().err
