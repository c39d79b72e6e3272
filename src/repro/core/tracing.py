"""Distributed frame tracing over the I2O context fields.

The I2O frame header carries two 64-bit fields that the architecture
already promises to preserve end-to-end: ``transaction_context``
(copied into replies, broadcast clones and dead-letter failures) and
``initiator_context`` (echoed untouched by the responder).  Tracing
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

This module holds only the id layout.  The stamping is the flight
recorder's (:meth:`repro.flightrec.recorder.FlightRecorder.stamp`,
called by ``frame_send``): the ids exist to join that recorder's
``dispatch`` records across nodes, and a span is a projection of one
such record (:func:`repro.flightrec.timeline.project_hops`), so a node
without a ring has nothing to stamp for.
"""

from repro.i2o.tid import MAX_NODE

#: Discriminator in the top 12 bits of a trace id.
TRACE_TAG = 0xACE
_TAG_SHIFT = 52
_NODE_SHIFT = 40
_SEQ_MASK = (1 << _NODE_SHIFT) - 1


def make_trace_id(node: int, seq: int) -> int:
    """Build a tagged 64-bit trace id rooted at ``node``."""
    return (
        (TRACE_TAG << _TAG_SHIFT)
        | ((node & MAX_NODE) << _NODE_SHIFT)
        | (seq & _SEQ_MASK)
    )


def is_trace_context(value: int) -> bool:
    """True when a ``transaction_context`` value carries a trace id."""
    return (value >> _TAG_SHIFT) == TRACE_TAG


def trace_root_node(trace_id: int) -> int:
    """The node that rooted a trace (allocated its id)."""
    return (trace_id >> _NODE_SHIFT) & MAX_NODE
