"""Critical-path decomposition: segments, wire joins, aggregation.

The analyzer's one input is a merged flight-recorder timeline, so every
case here is a handful of records: a hop is one ``dispatch`` record.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.tracing import make_trace_id
from repro.flightrec.records import (
    EV_DISPATCH,
    EV_FRAME_INGEST,
    EV_FRAME_TRANSMIT,
    EV_JOURNAL_COMMIT,
    EV_REL_ACK,
    EV_REL_SEND,
    FlightRecord,
    pack3,
)
from repro.flightrec.timeline import MergedTimeline
from repro.i2o.errors import I2OError
from repro.profile.critical import ADDITIVE_SEGMENTS, CriticalPathAnalyzer, TracePath

TRACE = make_trace_id(0, 0x123)
TID, XFN = 17, 0x2


def record(kind, t_ns, a, b=0, c=0, d=0):
    return FlightRecord(seq=t_ns, t_ns=t_ns, a=a, b=b, c=c, kind=kind, d=d)


def hop(start_ns, queue_wait_ns, dispatch_ns, trace=TRACE):
    """The record one traced dispatch leaves in its node's ring."""
    hdr = pack3(TID, 0xFF, XFN)
    return [
        record(EV_DISPATCH, start_ns, trace, hdr, queue_wait_ns, dispatch_ns),
    ]


def merge(*node_records):
    """``merge(records_of_node_0, records_of_node_1, ...)``."""
    return MergedTimeline([
        SimpleNamespace(node=node, records=records)
        for node, records in enumerate(node_records)
    ])


def path_of(merged, trace=TRACE):
    return CriticalPathAnalyzer(merged).path(trace)


#: Two hops: enqueue at 800, node-0 dispatch ends at 1300, node-1
#: enqueue at 2000 (a 700 ns gap), everything done at 2700.
HOP0, HOP1 = hop(1000, 200, 300), hop(2300, 300, 400)


def two_hop_path(wire=True):
    """HOP0 -> HOP1, optionally with the wire records between them:
    transmit at 1500 on node 0, ingest at 1900 on node 1, the reliable
    send (seq 9) at 1400, journalled at 1550 and acked at 1800."""
    if not wire:
        return path_of(merge(HOP0, HOP1))
    return path_of(merge(
        HOP0 + [
            record(EV_REL_SEND, 1400, a=9, b=1),
            record(EV_FRAME_TRANSMIT, 1500, TRACE, pack3(1, TID, XFN)),
            record(EV_JOURNAL_COMMIT, 1550, a=9),
            record(EV_REL_ACK, 1800, a=9),
        ],
        [record(EV_FRAME_INGEST, 1900, TRACE, pack3(0, TID, XFN))] + HOP1,
    ))


def additive_sum(path):
    return sum(
        h.segments.get(s, 0) for h in path.hops for s in ADDITIVE_SEGMENTS
    )


class TestDecomposition:
    def test_segments_and_total(self):
        path = two_hop_path(wire=False)
        assert path.total_ns == 1900
        first, second = path.hops
        assert first.segments == {"queue-wait": 200, "dispatch": 300}
        assert second.segments == {
            "queue-wait": 300, "dispatch": 400, "transit": 700,
        }

    def test_additive_segments_sum_to_the_lifetime(self):
        path = two_hop_path(wire=False)
        assert additive_sum(path) == path.total_ns

    def test_overlapping_hops_are_clipped_not_double_counted(self):
        # Two frames queued behind one another on node 1: the second
        # waits (from 2100) while the first still runs (until 2700).
        # Its queue wait is counted only from where the first hop's
        # coverage ends, so the additive segments still partition the
        # lifetime exactly.
        path = path_of(merge(HOP0, HOP1 + hop(2750, 650, 100)))
        assert path.total_ns == 2850 - 800
        assert path.hops[2].segments == {"queue-wait": 50, "dispatch": 100}
        assert additive_sum(path) == path.total_ns
        # A hop wholly inside an earlier one contributes nothing.
        shadowed = path_of(merge(hop(1000, 0, 1000), hop(1200, 50, 100)))
        assert shadowed.total_ns == 1000
        assert shadowed.hops[1].total_ns == 0

    def test_dominant_hop_and_segment(self):
        path = two_hop_path(wire=False)
        index, dominant = path.dominant_hop
        assert index == 1 and dominant.hop.node == 1
        assert dominant.dominant == ("transit", 700)

    def test_empty_timeline_yields_an_empty_path(self):
        analyzer = CriticalPathAnalyzer(MergedTimeline([]))
        path = analyzer.path(TRACE)
        assert path.total_ns == 0 and path.hops == []
        with pytest.raises(I2OError, match="has no hops"):
            path.dominant_hop
        assert analyzer.paths() == []

    def test_paths_enumerates_every_trace_in_the_merge(self):
        other = make_trace_id(1, 7)
        analyzer = CriticalPathAnalyzer(
            merge(HOP0, HOP1 + hop(5000, 10, 20, trace=other))
        )
        assert [p.trace_id for p in analyzer.paths()] == [TRACE, other]
        assert [len(p.hops) for p in analyzer.paths()] == [2, 1]


class TestRefinement:
    def test_transit_splits_into_encode_wire_residual(self):
        path = two_hop_path()
        segments = path.hops[1].segments
        assert segments["encode"] == 200  # 1300 -> transmit@1500
        assert segments["wire"] == 400    # transmit -> ingest@1900
        assert segments["transit"] == 100  # the unattributed residual
        # The split is a refinement: the additive total is unchanged.
        assert additive_sum(path) == path.total_ns == 1900

    def test_journal_and_ack_attributed_without_double_counting(self):
        path = two_hop_path()
        segments = path.hops[1].segments
        assert segments["journal"] == 150  # send@1400 -> commit@1550
        assert segments["ack"] == 400      # send@1400 -> ack@1800
        assert path.hops[1].total_ns == 1400  # overlap segments excluded

    def test_missing_wire_records_leave_transit_whole(self):
        # The ring overwrote them (or the hop was a same-node send).
        path = two_hop_path(wire=False)
        assert path.hops[1].segments["transit"] == 700
        assert "encode" not in path.hops[1].segments

    def test_the_join_follows_the_ingest_not_the_previous_hop(self):
        # Fan-out: node 0 sends to nodes 1 and 2.  Node 2's hop starts
        # after node 1's, but its frame came from node 0 — the ingest
        # record's source says so.
        to = {n: pack3(n, TID, XFN) for n in (1, 2)}
        came_from_0 = pack3(0, TID, XFN)
        path = path_of(merge(
            hop(1000, 0, 100) + [
                record(EV_FRAME_TRANSMIT, 1150, TRACE, to[1]),
                record(EV_FRAME_TRANSMIT, 1200, TRACE, to[2]),
            ],
            [record(EV_FRAME_INGEST, 1300, TRACE, came_from_0)]
            + hop(1400, 50, 100),
            [record(EV_FRAME_INGEST, 1600, TRACE, came_from_0)]
            + hop(1700, 50, 100),
        ))
        # Uncovered time before node 2's enqueue: 1500..1650, all of it
        # after the transmit (1200) and before/after the ingest (1600).
        assert path.hops[2].segments == {
            "encode": 0, "wire": 100, "transit": 50,
            "queue-wait": 50, "dispatch": 100,
        }
        assert additive_sum(path) == path.total_ns == 800


class TestAggregation:
    def test_segment_quantiles_are_exact(self):
        paths = [
            path_of(merge(hop(1000, 100 * (i + 1), 500)))
            for i in range(4)  # queue waits 100, 200, 300, 400
        ]
        stats = CriticalPathAnalyzer.segment_quantiles(paths)
        assert stats["queue-wait"] == {
            "count": 4, "p50": 200, "p99": 400, "max": 400,
        }
        assert stats["dispatch"]["p50"] == 500

    def test_slowest_orders_by_total(self):
        fast = path_of(merge(hop(10, 5, 5)))
        slow = path_of(merge(hop(10, 5, 5000)))
        assert CriticalPathAnalyzer.slowest([fast, slow], top=1) == [slow]


#: rendering needs no records of its own when paths are passed in
REPORTER = CriticalPathAnalyzer(MergedTimeline([]))


class TestRendering:
    def test_report_names_the_dominant_hop(self):
        text = REPORTER.report(paths=[two_hop_path(wire=False)])
        assert "=== critical path: 1 trace(s) ===" in text
        assert "queue-wait" in text and "dispatch" in text
        assert "dominant hop: #1 node1" in text
        assert "transit" in text

    def test_to_json_round_trips(self):
        blob = json.loads(
            REPORTER.to_json(paths=[two_hop_path(wire=False)])
        )
        (trace,) = blob["traces"]
        assert trace["trace_id"] == format(TRACE, "x")
        assert trace["total_ns"] == 1900
        assert [h["node"] for h in trace["hops"]] == [0, 1]
        assert trace["hops"][1]["dominant"] == "transit"
        assert blob["segments"]["queue-wait"]["count"] == 2

    def test_report_on_no_traces(self):
        assert "0 trace(s)" in REPORTER.report(paths=[])
        # With no explicit paths the analyzer reports its own merge.
        assert "0 trace(s)" in REPORTER.report()


class TestTracePathInvariants:
    def test_dominant_hop_of_empty_path_raises(self):
        with pytest.raises(I2OError):
            TracePath(trace_id=1, total_ns=0, hops=[]).dominant_hop
