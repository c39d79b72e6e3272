"""Scatter-gather lists, fragmentation and reassembly."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.i2o.errors import SGLError
from repro.i2o.frame import FLAG_LAST, FLAG_MORE, Frame
from repro.i2o.sgl import Fragmenter, Reassembler, ScatterGatherList

TARGET_TID = 1
INITIATOR_TID = 2
OTHER_INITIATOR_TID = 3


class TestScatterGatherList:
    def test_gather_preserves_order(self):
        sgl = ScatterGatherList([b"ab", b"cd", b"ef"])
        assert sgl.tobytes() == b"abcdef"
        assert len(sgl) == 6
        assert len(list(sgl.segments())) == 3

    def test_empty_segments_skipped(self):
        sgl = ScatterGatherList([b"", b"x", b""])
        assert len(list(sgl.segments())) == 1
        assert sgl.tobytes() == b"x"

    def test_chunks_reslice_across_segments(self):
        sgl = ScatterGatherList([b"abc", b"defg", b"h"])
        chunks = [bytes(c) for c in sgl.chunks(3)]
        assert b"".join(chunks) == b"abcdefgh"
        assert all(len(c) <= 3 for c in chunks)

    def test_chunks_zero_copy_views(self):
        backing = bytearray(b"abcdef")
        sgl = ScatterGatherList([backing])
        chunk = next(sgl.chunks(6))
        chunk[0] = ord("Z")
        assert backing[0] == ord("Z")

    def test_bad_chunk_size(self):
        with pytest.raises(SGLError):
            list(ScatterGatherList([b"x"]).chunks(0))

    def test_accepts_numpy_like_buffers(self):
        import numpy as np

        arr = np.arange(4, dtype=np.uint32)
        sgl = ScatterGatherList([arr])
        assert len(sgl) == 16

    @given(st.lists(st.binary(max_size=64), max_size=10),
           st.integers(1, 100))
    @settings(max_examples=80, deadline=None)
    def test_property_chunks_concatenate_to_whole(self, segments, chunk):
        sgl = ScatterGatherList(segments)
        assert b"".join(bytes(c) for c in sgl.chunks(chunk)) == b"".join(segments)


class TestFragmenter:
    def test_small_payload_single_frame_flag_last(self):
        frames = Fragmenter(max_fragment=100).fragment(
            b"small", target=TARGET_TID, initiator=INITIATOR_TID, xfunction=9
        )
        assert len(frames) == 1
        assert frames[0].flags == FLAG_LAST
        assert bytes(frames[0].payload) == b"small"

    def test_large_payload_chains(self):
        payload = bytes(range(256)) * 4  # 1024 B
        frames = Fragmenter(max_fragment=300).fragment(
            payload, target=TARGET_TID, initiator=INITIATOR_TID
        )
        assert len(frames) == 4
        assert all(f.flags == FLAG_MORE for f in frames[:-1])
        assert frames[-1].flags == FLAG_LAST
        assert all(
            f.transaction_context == frames[0].transaction_context for f in frames
        )
        assert [f.initiator_context for f in frames] == [0, 1, 2, 3]

    def test_empty_payload_still_one_frame(self):
        frames = Fragmenter().fragment(b"", target=TARGET_TID, initiator=INITIATOR_TID)
        assert len(frames) == 1
        assert frames[0].flags == FLAG_LAST
        assert frames[0].payload_size == 0

    def test_distinct_transactions(self):
        frag = Fragmenter(max_fragment=10)
        a = frag.fragment(b"x" * 20, target=TARGET_TID, initiator=INITIATOR_TID)
        b = frag.fragment(b"y" * 20, target=TARGET_TID, initiator=INITIATOR_TID)
        assert a[0].transaction_context != b[0].transaction_context

    def test_bad_max_fragment(self):
        with pytest.raises(SGLError):
            Fragmenter(max_fragment=0)


class TestReassembler:
    def _chain(self, payload, max_fragment=64, initiator=INITIATOR_TID):
        return Fragmenter(max_fragment=max_fragment).fragment(
            payload, target=TARGET_TID, initiator=initiator
        )

    def test_round_trip(self):
        payload = bytes(range(256)) * 3
        reasm = Reassembler()
        results = [reasm.add(f) for f in self._chain(payload)]
        assert results[-1] == payload
        assert all(r is None for r in results[:-1])
        assert reasm.pending_chains == 0

    def test_interleaved_chains_by_initiator(self):
        pa, pb = b"A" * 200, b"B" * 150
        chain_a = self._chain(pa, initiator=INITIATOR_TID)
        chain_b = self._chain(pb, initiator=OTHER_INITIATOR_TID)
        reasm = Reassembler()
        done = []
        for fa, fb in zip(chain_a, chain_b):
            for f in (fa, fb):
                out = reasm.add(f)
                if out is not None:
                    done.append(out)
        for f in chain_a[len(chain_b):] + chain_b[len(chain_a):]:
            out = reasm.add(f)
            if out is not None:
                done.append(out)
        assert sorted(done, key=len) == [pb, pa]

    def test_out_of_order_raises(self):
        frames = self._chain(b"z" * 200)
        reasm = Reassembler()
        reasm.add(frames[0])
        with pytest.raises(SGLError, match="out of order"):
            reasm.add(frames[2])

    def test_chain_starting_midway_raises(self):
        frames = self._chain(b"z" * 200)
        with pytest.raises(SGLError, match="began at fragment"):
            Reassembler().add(frames[1])

    def test_pending_limit(self):
        reasm = Reassembler(max_pending=1)
        frag = Fragmenter(max_fragment=4)
        c1 = frag.fragment(b"x" * 10, target=TARGET_TID, initiator=INITIATOR_TID)
        c2 = frag.fragment(b"y" * 10, target=TARGET_TID,
                           initiator=OTHER_INITIATOR_TID)
        reasm.add(c1[0])
        with pytest.raises(SGLError, match="too many pending"):
            reasm.add(c2[0])

    def test_frame_without_more_or_last_rejected(self):
        frame = Frame.build(target=TARGET_TID, initiator=INITIATOR_TID, payload=b"x",
                            transaction_context=5)
        with pytest.raises(SGLError, match="neither MORE nor LAST"):
            Reassembler().add(frame)

    @given(st.binary(min_size=0, max_size=5000), st.integers(1, 512))
    @settings(max_examples=60, deadline=None)
    def test_property_fragment_reassemble_identity(self, payload, max_frag):
        frames = Fragmenter(max_fragment=max_frag).fragment(
            payload, target=TARGET_TID, initiator=INITIATOR_TID
        )
        reasm = Reassembler()
        out = None
        for frame in frames:
            out = reasm.add(frame)
        assert out == payload
