"""Durable streams: journal, replay and snapshot for crash recovery.

PR 1 made node death survivable for *routing*; this package makes it
survivable for *data*.  A :class:`~repro.core.reliable.ReliableEndpoint`
given a :class:`~repro.durable.segments.SegmentStore` journals every
send before it hits the wire (record codec in
:mod:`repro.durable.journal`) and replays the unacknowledged tail after
a restart (:mod:`repro.durable.replay`), resuming its sequence space;
an :class:`~repro.daq.manager.EventManager` given a
:class:`~repro.durable.segments.SnapshotStore` persists its in-flight
event table and rejoins the event builder without re-triggering.
The shape follows the fault-tolerant transport frameworks cited in
PAPERS.md: recovery is a
*local* replay from a *local* log — no global reset, no distributed
consensus — kept honest by CRC discipline shared with the wire format.
"""

# benchmarks/trajectory imports these names from the package.
from repro.durable.journal import REC_SEND as REC_SEND
from repro.durable.journal import Record as Record
from repro.durable.journal import encode_record as encode_record
from repro.durable.segments import SegmentStore as SegmentStore
