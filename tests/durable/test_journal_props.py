"""Property tests for the journal codec (Hypothesis).

The claims under test are exactly the recovery guarantees DESIGN.md
§10 documents:

* a journal round-trips losslessly;
* **any** byte prefix of a valid journal decodes to a record-aligned
  prefix of the original records — torn tails truncate, they never
  raise and never yield a phantom record;
* a single flipped byte anywhere in a valid journal is always caught
  by a CRC and reported as :class:`JournalCorruption` with a
  diagnostic — never silently decoded as garbage;
* folding SEND/ACK records reproduces the live set, however many seqs
  one ACK record names.

The generated journals are valid ones: an ACK's payload is a whole
list of u64 seqs (anything else is refused as corruption, pinned in
``test_journal.py``), so the three codec properties cover multi-seq
ACKs too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable.journal import (
    REC_ACK,
    REC_META,
    REC_SEND,
    JournalCorruption,
    Record,
    ack_payload,
    decode_journal,
    encode_record,
)
from repro.durable.replay import replay_records

#: Journal records carry the destination TiD as plain data.
PEER_TID = 2

u32 = st.integers(min_value=0, max_value=2**32 - 1)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
records_st = st.lists(
    st.one_of(
        st.builds(
            Record,
            kind=st.sampled_from([REC_SEND, REC_META]),
            seq=u64, node=u32, tid=u32,
            payload=st.binary(max_size=128),
        ),
        st.builds(
            Record,
            kind=st.just(REC_ACK),
            seq=u64, node=u32, tid=u32,
            payload=st.lists(u64, max_size=16).map(
                lambda seqs: ack_payload(tuple(seqs))
            ),
        ),
    ),
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(records_st)
def test_round_trip(records):
    data = b"".join(encode_record(r) for r in records)
    result = decode_journal(data)
    assert result.records == records
    assert result.consumed == len(data)
    assert result.torn_bytes == 0


@settings(max_examples=80, deadline=None)
@given(records_st, st.data())
def test_any_prefix_replays_an_aligned_prefix(records, data):
    """Torn tails are the normal crash artefact: a byte prefix must
    decode the whole records it contains — no exception, no partial
    record, no record invented from tail bytes."""
    blob = b"".join(encode_record(r) for r in records)
    cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
    result = decode_journal(blob[:cut])  # must not raise
    assert result.records == records[: len(result.records)]
    assert result.consumed + result.torn_bytes == cut
    # consumed is exactly the encoded length of the records returned
    replayed = b"".join(encode_record(r) for r in result.records)
    assert result.consumed == len(replayed)


@settings(max_examples=120, deadline=None)
@given(records_st.filter(lambda rs: len(rs) > 0), st.data())
def test_single_byte_corruption_always_detected(records, data):
    blob = bytearray(b"".join(encode_record(r) for r in records))
    index = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    delta = data.draw(st.integers(min_value=1, max_value=255))
    blob[index] ^= delta
    with pytest.raises(JournalCorruption) as info:
        decode_journal(bytes(blob))
    # The diagnostic names a byte offset at or before the damage.
    assert 0 <= info.value.offset <= index


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=50), unique=True, max_size=20),
    st.data(),
)
def test_replay_fold_matches_send_minus_ack(seqs, data):
    acked = {s for s in seqs if data.draw(st.booleans())}
    records = [
        Record(kind=REC_SEND, seq=s, node=1, tid=PEER_TID,
               payload=b"p%d" % s)
        for s in seqs
    ]
    records += [Record(kind=REC_ACK, seq=s) for s in sorted(acked)]
    state = replay_records(records)
    assert sorted(state.pending) == sorted(set(seqs) - acked)
    if seqs:
        assert state.next_seq == max(seqs) + 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=50), unique=True, max_size=20),
    st.lists(
        st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8),
        max_size=6,
    ),
)
def test_multi_seq_acks_retire_exactly_the_seqs_they_name(seqs, acks):
    """SENDs, then ACK records naming several seqs each (repeats and
    seqs with no SEND included), through the codec and the fold: what
    stays live is exactly the SENDs no ACK named."""
    records = [
        Record(kind=REC_SEND, seq=s, node=1, tid=PEER_TID, payload=b"p%d" % s)
        for s in seqs
    ]
    records += [
        Record(kind=REC_ACK, seq=first, payload=ack_payload(tuple(more)))
        for first, *more in acks
    ]
    blob = b"".join(map(encode_record, records))
    state = replay_records(decode_journal(blob).records)
    named = {s for ack in acks for s in ack}
    assert sorted(state.pending) == sorted(set(seqs) - named)
    assert state.acked == len(set(seqs) & named)
