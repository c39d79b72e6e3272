"""Durable streams: journal, replay and snapshot for crash recovery.

PR 1 made node death survivable for *routing*; this package makes it
survivable for *data*.  A :class:`~repro.core.reliable.ReliableEndpoint`
given a :class:`SegmentStore` journals every send before it hits the
wire and replays the unacknowledged tail after a restart, resuming its
sequence space; an :class:`~repro.daq.manager.EventManager` given a
:class:`SnapshotStore` persists its in-flight event table and rejoins
the event builder without re-triggering.  The shape follows the
fault-tolerant transport frameworks cited in PAPERS.md: recovery is a
*local* replay from a *local* log — no global reset, no distributed
consensus — kept honest by CRC discipline shared with the wire format.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.durable.journal import (
        HEADER_SIZE,
        MAX_RECORD_PAYLOAD,
        REC_ACK,
        REC_META,
        REC_SEND,
        DecodeResult,
        JournalCorruption,
        JournalError,
        Record,
        decode_journal,
        encode_record,
        seeded_crc,
    )
    from repro.durable.replay import PendingSend, ReplayState, replay_records
    from repro.durable.segments import SegmentStore, SnapshotStore

__all__ = [
    "HEADER_SIZE",
    "MAX_RECORD_PAYLOAD",
    "REC_ACK",
    "REC_META",
    "REC_SEND",
    "DecodeResult",
    "JournalCorruption",
    "JournalError",
    "PendingSend",
    "Record",
    "ReplayState",
    "SegmentStore",
    "SnapshotStore",
    "decode_journal",
    "encode_record",
    "replay_records",
    "seeded_crc",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.durable.journal": (
        "HEADER_SIZE", "MAX_RECORD_PAYLOAD", "REC_ACK", "REC_META", "REC_SEND",
        "DecodeResult", "JournalCorruption", "JournalError", "Record",
        "decode_journal", "encode_record", "seeded_crc",
    ),
    "repro.durable.replay": ("PendingSend", "ReplayState", "replay_records"),
    "repro.durable.segments": ("SegmentStore", "SnapshotStore"),
})
