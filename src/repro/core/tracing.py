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

The tracer only *stamps*: it allocates ids and keeps the in-dispatch
context that lets a handler's sends join the dispatched frame's trace.
It stores nothing per hop — the per-hop facts are the flight
recorder's ``dispatch`` records, and a span is a projection of one
such record
(:func:`repro.flightrec.timeline.project_hops`); a node that should
report hops attaches a ``FlightRecorder`` beside its tracer.

A dispatch observer (:mod:`repro.core.observer`):
``exe.attach(FrameTracer())`` sets ``exe.tracer``, which
``frame_send`` reads to stamp outgoing frames.
"""

from __future__ import annotations

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


class FrameTracer(DispatchObserver):
    """Per-executive trace-id allocator.

    Besides the observer contract — ``dispatch_begin`` / ``dispatch_end``
    bracket the in-dispatch context — the executive calls :meth:`stamp`
    at ``frame_send``: it roots a new trace for frames sent from outside
    any dispatch, or propagates the active trace to frames sent *during*
    a dispatch; it never overwrites a non-zero ``transaction_context``
    (application and timer contexts, and contexts already carried across
    the wire, pass untouched).
    """

    label = "frame tracer"

    def __init__(self, node: int | None = None) -> None:
        self.node = node
        self.allocated = 0
        self._active = 0
        self._in_dispatch = False

    def _fresh_id(self) -> int:
        self.allocated += 1
        return make_trace_id(self.node or 0, self.allocated)

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
        self._active = 0
        self._in_dispatch = False
