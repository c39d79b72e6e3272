"""Distributed frame tracing over the I2O context fields.

The I2O frame header carries two 64-bit fields that the architecture
already promises to preserve end-to-end: ``transaction_context``
(copied into replies, broadcast clones and dead-letter failures) and
``initiator_context`` (echoed untouched by the responder).  The tracer
exploits that: a trace id rides ``transaction_context`` across every
hop — peer transports serialise the full header, the reliable endpoint
tunnels whole frames, and the DAQ event builder leaves the field at
zero — so *no protocol gains a private verb* to become traceable.

Trace ids are tagged in the top 12 bits (:data:`TRACE_TAG`) so they
can never be confused with application or timer contexts, which are
small integers.  Layout::

    63          52 51      40 39                         0
    +-------------+----------+---------------------------+
    |  0xACE tag  |  node id |       local sequence      |
    +-------------+----------+---------------------------+

Each executive that has a :class:`FrameTracer` installed records one
:class:`Span` per dispatched frame belonging to a trace: node, target
TiD, function codes, enqueue-to-dispatch queue wait and dispatch
duration — the per-hop breakdown of paper §5's whitebox probes, but
stitched *across* nodes by the collector.  Spans live in a bounded
ring (old spans fall off; ``dropped`` counts them), so tracing can
stay on in production without growing memory.

The tracer is a dispatch observer (:mod:`repro.core.observer`):
``exe.attach(FrameTracer())`` subscribes it and sets ``exe.tracer``,
which the send/enqueue/release hook sites read directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.observer import DispatchObserver, DispatchRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executive import Executive
    from repro.i2o.frame import Frame

#: Discriminator in the top 12 bits of a trace id.
TRACE_TAG = 0xACE
_TAG_SHIFT = 52
_NODE_SHIFT = 40
_SEQ_MASK = (1 << _NODE_SHIFT) - 1


def make_trace_id(node: int, seq: int) -> int:
    """Build a tagged 64-bit trace id rooted at ``node``."""
    return (
        (TRACE_TAG << _TAG_SHIFT)
        | ((node & 0xFFF) << _NODE_SHIFT)
        | (seq & _SEQ_MASK)
    )


def is_trace_context(value: int) -> bool:
    """True when a ``transaction_context`` value carries a trace id."""
    return (value >> _TAG_SHIFT) == TRACE_TAG


def trace_root_node(trace_id: int) -> int:
    """The node that rooted a trace (allocated its id)."""
    return (trace_id >> _NODE_SHIFT) & 0xFFF


@dataclass(frozen=True, slots=True)
class Span:
    """One dispatch hop of a traced operation."""

    trace_id: int
    span_id: int
    node: int
    tid: int
    function: int
    xfunction: int
    start_ns: int
    queue_wait_ns: int
    dispatch_ns: int


class FrameTracer(DispatchObserver):
    """Per-executive trace-id allocator and span ring.

    Clock-agnostic (every reading is passed in), so it works on both
    the native and simulation planes.  Besides the observer contract —
    ``dispatch_begin`` / ``dispatch_end`` record the hop's span — the
    executive calls three hooks directly:

    * :meth:`stamp` at ``frame_send`` — roots a new trace for frames
      sent from outside any dispatch, or propagates the active trace
      to frames sent *during* a dispatch; never overwrites a non-zero
      ``transaction_context`` (application and timer contexts, and
      contexts already carried across the wire, pass untouched);
    * :meth:`note_enqueue` when a frame enters the scheduler;
    * :meth:`forget` when a frame is released without dispatch.
    """

    label = "frame tracer"

    def __init__(self, node: int | None = None, capacity: int = 1024) -> None:
        self.node = node
        self.capacity = capacity
        self.spans: deque[Span] = deque(maxlen=capacity)
        self.dropped = 0
        self.allocated = 0
        self._seq = 0
        self._span_seq = 0
        self._active = 0
        self._in_dispatch = False

    # -- trace-id allocation ------------------------------------------------
    def _fresh_id(self) -> int:
        self._seq += 1
        self.allocated += 1
        return make_trace_id(self.node or 0, self._seq)

    def stamp(self, frame: "Frame") -> None:
        if frame.transaction_context != 0 or frame.is_reply:
            return
        if self._in_dispatch:
            # Sends made by the handler continue the dispatched frame's
            # trace; an untraced dispatch lazily roots one so a chain
            # started by e.g. a timer handler is still stitched.
            if self._active == 0:
                self._active = self._fresh_id()
            frame.transaction_context = self._active
        else:
            frame.transaction_context = self._fresh_id()

    # -- scheduler hooks ----------------------------------------------------
    # The enqueue timestamp rides the frame itself (``trace_mark``),
    # not a dict keyed by ``id(frame)``: id() values recycle with the
    # allocator, so a released frame's stale entry could alias a new
    # frame at the same address and inflate its queue_wait_ns.
    def note_enqueue(self, frame: "Frame", now_ns: int) -> None:
        frame.trace_mark = now_ns

    def forget(self, frame: "Frame") -> None:
        frame.trace_mark = None

    # -- the observer contract ----------------------------------------------
    def on_attach(self, exe: "Executive") -> None:
        if self.node is None:
            self.node = exe.node
        exe.tracer = self

    def on_detach(self, exe: "Executive") -> None:
        exe.tracer = None

    def dispatch_begin(self, rec: DispatchRecord) -> None:
        self._active = rec.context if is_trace_context(rec.context) else 0
        self._in_dispatch = True

    def dispatch_end(self, rec: DispatchRecord) -> None:
        trace_id = self._active
        self._active = 0
        self._in_dispatch = False
        if trace_id == 0:
            return
        if len(self.spans) == self.capacity:
            self.dropped += 1
        self._span_seq += 1
        enqueued = rec.enqueued_ns
        self.spans.append(
            Span(
                trace_id=trace_id,
                span_id=self._span_seq,
                node=self.node or 0,
                tid=rec.target,
                function=rec.function,
                xfunction=rec.xfunction,
                start_ns=rec.start_ns,
                queue_wait_ns=(
                    rec.start_ns - enqueued if enqueued is not None else 0
                ),
                dispatch_ns=rec.end_ns - rec.start_ns,
            )
        )

    # -- export -------------------------------------------------------------
    def snapshot_spans(self) -> list[Span]:
        return list(self.spans)
