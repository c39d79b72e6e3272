"""Fragment generation and wire format."""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executive import Executive
from repro.daq import events
from repro.daq.events import (
    FRAGMENT_OVERHEAD,
    FragmentError,
    FragmentHeader,
    fragment_payload,
    fragment_size,
    make_fragment_payload,
    parse_fragment,
    synthesize_fragment,
    verify_fragment,
    write_fragment,
)
from repro.i2o.tid import EXECUTIVE_TID, PTA_TID


class TestGenerator:
    def test_size_deterministic(self):
        assert fragment_size(42, 3) == fragment_size(42, 3)

    def test_size_varies_by_event_and_ru(self):
        sizes = {fragment_size(e, r) for e in range(10) for r in range(4)}
        assert len(sizes) > 10  # fluctuating occupancy

    def test_size_bounds_respected(self):
        for event in range(200):
            assert 64 <= fragment_size(event, 0) <= 16384

    def test_payload_deterministic(self):
        assert fragment_payload(7, 1, 100) == fragment_payload(7, 1, 100)

    def test_payload_differs_across_rus(self):
        assert fragment_payload(7, 1, 100) != fragment_payload(7, 2, 100)


class TestWireFormat:
    def test_round_trip(self):
        data = b"detector bytes" * 10
        header, payload = parse_fragment(make_fragment_payload(9, 2, data))
        assert header.event_id == 9
        assert header.ru_id == 2
        assert header.length == len(data)
        assert payload == data

    def test_synthesize_parses(self):
        header, payload = parse_fragment(synthesize_fragment(123, 4))
        assert header.event_id == 123
        assert header.ru_id == 4
        assert len(payload) == header.length

    def test_crc_detects_corruption(self):
        wire = bytearray(make_fragment_payload(1, 1, b"x" * 50))
        wire[FRAGMENT_OVERHEAD] ^= 0xFF  # flip a payload byte
        with pytest.raises(FragmentError, match="CRC"):
            parse_fragment(wire)

    def test_truncation_detected(self):
        wire = make_fragment_payload(1, 1, b"x" * 50)
        with pytest.raises(FragmentError):
            parse_fragment(wire[:-1])

    def test_too_short_detected(self):
        with pytest.raises(FragmentError, match="short"):
            parse_fragment(b"tiny")

    def test_length_mismatch_detected(self):
        wire = bytearray(make_fragment_payload(1, 1, b"x" * 50))
        wire[12:16] = (10).to_bytes(4, "little")  # lie about length
        with pytest.raises(FragmentError):
            parse_fragment(wire)

    @given(st.integers(0, 2**63), st.integers(0, 2**31),
           st.binary(max_size=500))
    @settings(max_examples=80, deadline=None)
    def test_property_round_trip(self, event_id, ru_id, data):
        header, payload = parse_fragment(
            make_fragment_payload(event_id, ru_id, data)
        )
        assert (header.event_id, header.ru_id) == (event_id, ru_id)
        assert payload == data


#: CRC32 of ``struct.pack("<4096I", ...)`` over the sizes of event ids
#: 1..512 x ru 0..7, captured at 33283f9 — before any tidy of
#: ``fragment_size``.  X5 ``daqscale``, ``daq.payload_bytes_per_event``
#: and the trajectory's reference check hang off these values.
PINNED_SIZE_TABLES = {256: 0x0ADECF27, 512: 0x8A4BBB95, 2048: 0xA1AFD644}

#: (event, ru, keywords, size), same capture; the last rows sit on the
#: ``minimum`` / ``maximum`` clamps.
PINNED_SIZES = [
    (1, 0, {}, 1403),
    (1, 1, {}, 1412),
    (2, 0, {}, 2121),
    (42, 3, {}, 2183),
    (123, 4, {}, 1380),
    (512, 7, {}, 2287),
    (1000004, 0, {}, 2706),
    (1000004, 3, {}, 2581),
    (2**48, 7, {}, 2048),
    (7, 1, {"mean": 512}, 467),
    (7, 1, {"mean": 256}, 233),
    (999, 0, {"mean": 512}, 426),
    (2, 0, {"mean": 64}, 66),
    (1, 0, {"mean": 64}, 64),
    (3, 0, {"mean": 64}, 64),
    (5, 2, {"mean": 70}, 64),
    (1, 0, {"mean": 16384}, 11224),
    (3, 0, {"mean": 16384}, 15558),
    (2, 0, {"mean": 16384}, 16384),
]


class TestPinnedSizes:
    @pytest.mark.parametrize("mean", sorted(PINNED_SIZE_TABLES))
    def test_size_table_is_the_parents(self, mean):
        sizes = [
            fragment_size(event, ru, mean=mean)
            for event in range(1, 513) for ru in range(8)
        ]
        packed = struct.pack(f"<{len(sizes)}I", *sizes)
        assert zlib.crc32(packed) == PINNED_SIZE_TABLES[mean]

    @pytest.mark.parametrize("event,ru,kwargs,size", PINNED_SIZES)
    def test_literal_sizes(self, event, ru, kwargs, size):
        assert fragment_size(event, ru, **kwargs) == size


class TestArena:
    def test_payload_is_a_read_only_view_not_a_copy(self):
        view = fragment_payload(7, 1, 100)
        assert isinstance(view, memoryview) and view.readonly
        assert view.obj is fragment_payload(8, 3, 5000).obj  # one arena

    def test_payload_builds_no_generator(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("fragment_payload built a Generator")

        monkeypatch.setattr(events.np.random, "default_rng", no_generator)
        assert len(fragment_payload(7, 1, 100)) == 100

    @given(st.integers(0, 2**63), st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_any_maximum_sized_fragment_fits(self, event_id, ru_id):
        assert len(fragment_payload(event_id, ru_id, 16384)) == 16384

    def test_oversized_request_is_refused(self):
        with pytest.raises(FragmentError):
            fragment_payload(1, 0, 2**16 + 1)
        with pytest.raises(FragmentError):
            fragment_payload(1, 0, -1)


def _pool_view(size):
    exe = Executive(node=0)
    frame = exe.frame_alloc(size, target=PTA_TID, initiator=EXECUTIVE_TID)
    return exe, frame


class TestFragmentViews:
    DATA = bytes(range(256)) * 3

    def test_round_trip_in_a_pool_block(self):
        exe, frame = _pool_view(FRAGMENT_OVERHEAD + len(self.DATA))
        write_fragment(frame.payload, 9, 2, self.DATA, zlib.crc32(self.DATA))
        assert verify_fragment(frame.payload) == FragmentHeader(
            9, 2, len(self.DATA)
        )
        assert parse_fragment(frame.payload)[1] == self.DATA
        exe.frame_free(frame)
        assert exe.pool.in_flight == 0

    def test_round_trip_in_a_sliced_bytearray(self):
        backing = bytearray(b"\xAA" * (FRAGMENT_OVERHEAD + len(self.DATA) + 14))
        view = memoryview(backing)[7:-7]
        write_fragment(view, 9, 2, memoryview(self.DATA), zlib.crc32(self.DATA))
        assert verify_fragment(view) == FragmentHeader(9, 2, len(self.DATA))
        assert backing[:7] == backing[-7:] == b"\xAA" * 7  # stayed inside

    def test_verify_reads_a_read_only_view(self):
        wire = memoryview(synthesize_fragment(123, 4))
        assert wire.readonly
        assert verify_fragment(wire) == FragmentHeader(
            123, 4, fragment_size(123, 4)
        )

    @pytest.mark.parametrize("mutate", [
        lambda w: w[:-1],                                   # truncated
        lambda w: w + b"\x00",                              # over-long
        lambda w: w[:12] + b"\xFF\xFF\xFF\xFF" + w[16:],    # length 2^32-1
        lambda w: w[:20] + bytes([w[20] ^ 1]) + w[21:],     # payload byte
        lambda w: w[:-1] + bytes([w[-1] ^ 1]),              # CRC byte
        lambda w: w[:15],                                   # inside header
        lambda w: b"",
    ], ids=["truncated", "over-long", "length-max", "payload-flip",
            "crc-flip", "short-header", "empty"])
    def test_corruption_is_a_fragment_error(self, mutate):
        wire = mutate(make_fragment_payload(1, 1, b"x" * 50))
        for candidate in (wire, memoryview(wire), bytearray(wire)):
            with pytest.raises(FragmentError):
                verify_fragment(candidate)
            with pytest.raises(FragmentError):
                parse_fragment(candidate)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1),
           st.binary(max_size=500), st.integers(0, 16))
    @settings(max_examples=80, deadline=None)
    def test_property_parse_inverts_make(self, event_id, ru_id, data, pad):
        wire = make_fragment_payload(event_id, ru_id, data)
        expected = (FragmentHeader(event_id, ru_id, len(data)), data)
        assert parse_fragment(wire) == expected
        # ... and at any offset inside a larger buffer
        framed = memoryview(bytes(pad) + wire + bytes(pad))
        assert parse_fragment(framed[pad : pad + len(wire)]) == expected
