"""Per-hop critical-path decomposition of traced frame lifetimes.

Input is one :class:`~repro.flightrec.timeline.MergedTimeline` — live
recorders or ``.flightrec`` dumps, the analysis is the same.  Its hops
give per-hop queue-wait and dispatch on a shared clock domain; its
``frame-transmit``/``frame-ingest`` and reliable-stream records split
the time *between* hops.  One trace becomes a :class:`TracePath` (hops
in start order, each broken into named segments), a set of traces
per-segment p50/p99 plus the dominant hop of the slow ones.

Which record pair bounds which segment, and the paper's Table-1 stages
inside each, is the table in DESIGN §13.  The additive segments
partition the trace's lifetime: each is clipped to the time no
earlier-starting hop already covers, so overlapping hops (fan-out
branches in parallel, two frames queued behind one another) are never
counted twice and the additive segments of all hops sum exactly to
``total_ns``.  ``journal`` and ``ack`` are overlapping diagnostics,
never added to the total.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.flightrec.records import (
    EV_FRAME_INGEST,
    EV_FRAME_TRANSMIT,
    EV_JOURNAL_COMMIT,
    EV_REL_ACK,
    EV_REL_SEND,
    unpack3,
)
from repro.flightrec.timeline import Hop, MergedTimeline
from repro.i2o.errors import I2OError
from repro.profile.sampler import context_label

#: Every segment name the decomposition can emit, report order.
SEGMENTS: tuple[str, ...] = (
    "queue-wait", "dispatch", "encode", "wire", "transit",
    "journal", "ack",
)

#: Segments that sum to the end-to-end lifetime (the rest overlap).
ADDITIVE_SEGMENTS: tuple[str, ...] = SEGMENTS[:5]

#: The overlapping segments: latency from a ``rel-send`` to this record.
_AFTER_REL_SEND = {EV_JOURNAL_COMMIT: "journal", EV_REL_ACK: "ack"}


@dataclass
class HopBreakdown:
    """One dispatch hop of a trace, decomposed into segments."""

    hop: Hop
    segments: dict[str, int] = field(default_factory=dict)

    @property
    def label(self) -> str:
        hop = self.hop
        return context_label((hop.tid, hop.function, hop.xfunction))

    @property
    def total_ns(self) -> int:
        return sum(self.segments.get(s, 0) for s in ADDITIVE_SEGMENTS)

    @property
    def dominant(self) -> tuple[str, int]:
        """The segment owning most of this hop's additive time."""
        best = max(
            ADDITIVE_SEGMENTS, key=lambda s: self.segments.get(s, 0)
        )
        return best, self.segments.get(best, 0)


@dataclass
class TracePath:
    """One end-to-end trace as an ordered hop decomposition."""

    trace_id: int
    total_ns: int
    hops: list[HopBreakdown]

    @property
    def dominant_hop(self) -> tuple[int, HopBreakdown]:
        if not self.hops:
            raise I2OError(f"trace {self.trace_id:#x} has no hops")
        index = max(
            range(len(self.hops)), key=lambda i: self.hops[i].total_ns
        )
        return index, self.hops[index]


class CriticalPathAnalyzer:
    """Decompose a merged timeline's traces; aggregate the segments."""

    def __init__(self, merged: MergedTimeline) -> None:
        self.merged = merged

    # -- single-trace decomposition -----------------------------------------
    def path(self, trace_id: int) -> TracePath:
        """Decompose one trace (no hops in the merge: an empty path)."""
        hops: list[HopBreakdown] = []
        first_enqueue = cursor = 0  # cursor: end of the time covered so far
        for hop in self.merged.hops(trace_id):
            enqueue = hop.start_ns - hop.queue_wait_ns
            end = hop.start_ns + hop.dispatch_ns
            if not hops:
                first_enqueue = cursor = enqueue
            segments = self._gap(hop, enqueue, cursor)
            segments["queue-wait"] = max(0, hop.start_ns - max(enqueue, cursor))
            segments["dispatch"] = max(0, end - max(hop.start_ns, cursor))
            hops.append(HopBreakdown(hop, segments))
            cursor = max(cursor, end)
        return TracePath(trace_id, cursor - first_enqueue, hops)

    def _gap(self, hop: Hop, enqueue: int, lo: int) -> dict[str, int]:
        """Attribute the time from ``lo`` (where earlier hops' coverage
        ends) to ``hop``'s enqueue, joining on the ingest that delivered
        its frame and the transmit that sent it.  A frame that crossed
        the wire gets ``encode`` and ``wire`` even when an overlap clips
        them to 0."""
        hi = max(lo, enqueue)
        unattributed = {"transit": hi - lo} if hi > lo else {}
        events = self.merged.trace(hop.trace_id)
        arrival = (hop.tid, hop.xfunction)
        ingest = next((
            e for e in reversed(events)
            if e.record.kind == EV_FRAME_INGEST and e.node == hop.node
            and e.record.t_ns <= enqueue
            and unpack3(e.record.b)[1:] == arrival
        ), None)
        if ingest is None:
            return unattributed
        sender = unpack3(ingest.record.b)[0]
        transmit = next((
            e for e in reversed(events)
            if e.record.kind == EV_FRAME_TRANSMIT and e.node == sender
            and e.record.t_ns <= ingest.record.t_ns
            and unpack3(e.record.b) == (hop.node, *arrival)
        ), None)
        if transmit is None:
            return unattributed
        sent = min(max(transmit.record.t_ns, lo), hi)
        arrived = min(max(ingest.record.t_ns, sent), hi)
        segments = {
            "encode": sent - lo, "wire": arrived - sent,
            "transit": hi - arrived,
        }
        # Journal-commit and ack latency of the reliable send(s) the
        # sender made inside the gap, matched by seq.
        send_t: dict[int, int] = {}
        for record in self.merged.reliable(sender):
            t = record.t_ns
            if record.kind == EV_REL_SEND and lo <= t <= hi:
                send_t.setdefault(record.a, t)
            elif record.a in send_t and record.kind in _AFTER_REL_SEND:
                name = _AFTER_REL_SEND[record.kind]
                segments[name] = max(
                    segments.get(name, 0), t - send_t[record.a]
                )
        return segments

    # -- aggregation ---------------------------------------------------------
    def paths(self) -> list[TracePath]:
        """Every trace in the merge, decomposed."""
        return [self.path(trace_id) for trace_id in self.merged.trace_ids()]

    @staticmethod
    def segment_quantiles(
        paths: Iterable[TracePath],
    ) -> dict[str, dict[str, int]]:
        """Exact per-segment p50/p99 across every hop of every path."""
        values: dict[str, list[int]] = {}
        for path in paths:
            for hop in path.hops:
                for segment, ns in hop.segments.items():
                    values.setdefault(segment, []).append(ns)
        out: dict[str, dict[str, int]] = {}
        for segment in SEGMENTS:
            samples = sorted(values.get(segment, ()))
            if not samples:
                continue
            out[segment] = {
                "count": len(samples),
                "p50": _quantile(samples, 0.50),
                "p99": _quantile(samples, 0.99),
                "max": samples[-1],
            }
        return out

    @staticmethod
    def slowest(paths: Iterable[TracePath], top: int = 5) -> list[TracePath]:
        return sorted(paths, key=lambda p: p.total_ns, reverse=True)[:top]

    # -- rendering -----------------------------------------------------------
    def report(
        self, paths: "list[TracePath] | None" = None, top: int = 3
    ) -> str:
        """Human-readable critical-path report: segment quantiles, then
        the slowest traces hop by hop with each hop's dominant segment."""
        if paths is None:
            paths = self.paths()
        lines = [f"=== critical path: {len(paths)} trace(s) ==="]
        quantiles = self.segment_quantiles(paths)
        if quantiles:
            lines.append(
                f"{'segment':<12}{'count':>8}{'p50_ns':>12}"
                f"{'p99_ns':>12}{'max_ns':>12}"
            )
            for segment, stats in quantiles.items():
                lines.append(
                    f"{segment:<12}{stats['count']:>8}{stats['p50']:>12}"
                    f"{stats['p99']:>12}{stats['max']:>12}"
                )
        for path in self.slowest(paths, top):
            lines.append(
                f"--- trace {path.trace_id:x}: total {path.total_ns} ns, "
                f"{len(path.hops)} hop(s) ---"
            )
            lines.append(
                f"{'hop':>4} {'node':>5} {'message':<28}" + "".join(
                    f"{segment:>11}" for segment in ADDITIVE_SEGMENTS
                ) + "  dominant"
            )
            for i, hop in enumerate(path.hops):
                segment, ns = hop.dominant
                lines.append(
                    f"{i:>4} {hop.hop.node:>5} {hop.label:<28}" + "".join(
                        f"{hop.segments.get(s, 0):>11}"
                        for s in ADDITIVE_SEGMENTS
                    ) + f"  {segment} ({ns} ns)"
                )
            if path.hops:
                index, hop = path.dominant_hop
                segment, ns = hop.dominant
                share = 100 * hop.total_ns / path.total_ns \
                    if path.total_ns else 0.0
                lines.append(
                    f"dominant hop: #{index} node{hop.hop.node} {hop.label}"
                    f" — {segment} ({share:.0f}% of total)"
                )
        return "\n".join(lines)

    def to_json(self, paths: "list[TracePath] | None" = None) -> str:
        if paths is None:
            paths = self.paths()
        return json.dumps(
            {
                "segments": self.segment_quantiles(paths),
                "traces": [
                    {
                        "trace_id": format(path.trace_id, "x"),
                        "total_ns": path.total_ns,
                        "hops": [
                            {
                                "node": hop.hop.node,
                                "tid": hop.hop.tid,
                                "message": hop.label,
                                "segments": hop.segments,
                                "dominant": hop.dominant[0],
                            }
                            for hop in path.hops
                        ],
                    }
                    for path in paths
                ],
            },
            sort_keys=True,
        )


def _quantile(sorted_samples: list[int], q: float) -> int:
    """Exact upper-value quantile of a sorted sample list."""
    if not sorted_samples:
        raise I2OError("quantile of an empty sample set")
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]
