"""Replay: fold a journal's records back into endpoint state.

Pure functions — no I/O, no executive.  The segment store reads the
bytes and handles torn tails; this module answers the only question
recovery asks: *given everything the journal remembers, what was
unacknowledged, and where does the sequence space resume?*

The fold is order-sensitive in exactly one way: an ACK retires the
SENDs it follows — every seq it names, its header ``seq`` and the u64s
its payload lists.  A seq an ACK names with no live SEND is legal —
compaction drops dead records, and the crash window between
transmitting and recording an ack means replay may re-deliver and
re-retire a message the peer already consumed (the receiver's dedup
window absorbs it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.durable.journal import (
    REC_ACK,
    REC_META,
    REC_SEND,
    Record,
    acked_seqs,
)


@dataclass(frozen=True)
class PendingSend:
    """One unacknowledged message reconstructed from the journal."""

    seq: int
    node: int
    tid: int
    payload: bytes


@dataclass
class ReplayState:
    """Everything a restarted endpoint needs to resume.

    ``next_seq`` is past every sequence number the journal has ever
    seen (META high-water mark included), so a restarted endpoint can
    never re-issue a sequence number — the receiver's dedup would
    silently swallow the new message as a duplicate of the old one.
    """

    next_seq: int = 1
    pending: dict[int, PendingSend] = field(default_factory=dict)
    #: endpoint identity stamped by the first META record, if any
    node: int | None = None
    tid: int | None = None
    records: int = 0
    acked: int = 0

    @property
    def identity(self) -> tuple[int, int] | None:
        if self.node is None or self.tid is None:
            return None
        return (self.node, self.tid)


def replay_records(records: list[Record]) -> ReplayState:
    """Fold decoded records into a :class:`ReplayState`."""
    state = ReplayState()
    for record in records:
        state.records += 1
        if record.kind == REC_SEND:
            state.pending[record.seq] = PendingSend(
                seq=record.seq,
                node=record.node,
                tid=record.tid,
                payload=record.payload,
            )
            if record.seq >= state.next_seq:
                state.next_seq = record.seq + 1
        elif record.kind == REC_ACK:
            for seq in acked_seqs(record):
                if state.pending.pop(seq, None) is not None:
                    state.acked += 1
        elif record.kind == REC_META:
            if record.seq > state.next_seq:
                state.next_seq = record.seq
            if state.node is None:
                state.node = record.node
                state.tid = record.tid
    return state
