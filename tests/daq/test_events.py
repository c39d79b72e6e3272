"""Fragment generation and wire format."""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executive import Executive
from repro.daq.events import (
    FRAGMENT_OVERHEAD,
    FragmentError,
    FragmentHeader,
    _pcg64,
    _pcg64_next,
    _standard_normal,
    fragment_payload,
    fragment_size,
    make_fragment_payload,
    parse_fragment,
    synthesize_fragment,
    verify_fragment,
    write_fragment,
)
from repro.i2o.tid import EXECUTIVE_TID, PTA_TID

SRC = Path(__file__).resolve().parents[2] / "src"


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


def numpy_fragment_size(event_id, ru_id, mean=2048, spread=0.25,
                        minimum=64, maximum=16384):
    """The oracle: ``fragment_size``'s body while it drew through NumPy."""
    rng = np.random.default_rng((event_id * 0x9E3779B1 + ru_id) & 0xFFFFFFFF)
    size = int(rng.lognormal(mean=np.log(mean), sigma=spread))
    return max(minimum, min(maximum, size))


def numpy_path(seed):
    """``(branch, layer)`` that ``default_rng(seed).standard_normal()``
    takes, read from NumPy alone: the first raw word's layer, and how
    many words the draw consumed (fast 1, wedge 2, a retry or the tail
    more)."""
    layer = int(np.random.PCG64(seed).random_raw()) & 0xFF
    drawn = np.random.PCG64(seed)
    np.random.Generator(drawn).standard_normal()
    probe = np.random.PCG64(seed)
    words = 0
    while probe.state != drawn.state:
        probe.advance(1)
        words += 1
        assert words < 16
    if words == 1:
        return "fast", layer
    if layer == 0:
        return ("tail" if words == 3 else "tail-reject-retry"), layer
    return ("wedge-accept" if words == 2 else "wedge-reject-retry"), layer


#: Unclamped keywords: every bit of the draw that survives ``int()`` shows.
UNCLAMPED = {"spread": 1.0, "minimum": 0, "maximum": 2**62}

#: ru ids at event 0 (so the seed is the ru id): 0..1551 is the
#: shortest run from 0 whose first draws take the fast path on every
#: layer that has one — all but layer 1, the top layer, where
#: ``KI[1] == 0`` makes every draw a wedge draw.
FAST_PATH_SEEDS = range(1552)

#: Seeds whose draw leaves the fast path, found by scanning seeds
#: 0..199 999 once and pinned; ``numpy_path`` re-derives each branch,
#: so a seed that stops taking its branch fails the test.
SLOW_PATH_SEEDS = [
    ("wedge-accept", 163),          # layer 1
    ("wedge-accept", 235),          # layer 244
    ("wedge-reject-retry", 15),     # layer 1, then the fast path
    ("wedge-reject-retry", 61),     # layer 239, then the fast path
    ("wedge-reject-retry", 4101),   # rejected twice
    ("wedge-reject-retry", 39111),  # rejected, then a wedge accept
    ("tail", 755),                  # below -R
    ("tail", 1950),                 # above +R
    ("tail-reject-retry", 139259),
    ("tail-reject-retry", 141511),
]


class TestNumpyOracle:
    """``fragment_size`` draws what ``default_rng(seed).lognormal`` does,
    bit for bit.  Where NumPy and ``math`` disagree in the last ulp on
    some host, ``TestPinnedSizes`` decides, not this oracle."""

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**31 - 1),
           st.sampled_from([64, 70, 256, 512, 2048, 16384]),
           st.one_of(st.just(0.25), st.just(0.0),
                     st.floats(0, 2, allow_nan=False)))
    @settings(max_examples=400, deadline=None)
    def test_sizes_match_numpy(self, event_id, ru_id, mean, spread):
        assert fragment_size(event_id, ru_id, mean=mean, spread=spread) == (
            numpy_fragment_size(event_id, ru_id, mean=mean, spread=spread)
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_words_match_pcg64(self, seed):
        """The unrolled seed hash and PCG64's seeding and step."""
        state, inc = _pcg64(seed)
        words = []
        for _ in range(4):
            state, word = _pcg64_next(state, inc)
            words.append(word)
        assert words == np.random.PCG64(seed).random_raw(4).tolist()

    def test_fast_path_on_every_layer(self):
        layers = set()
        for seed in FAST_PATH_SEEDS:
            branch, layer = numpy_path(seed)
            if branch == "fast":
                layers.add(layer)
            assert _standard_normal(seed) == (
                np.random.default_rng(seed).standard_normal()
            )
            for kwargs in ({}, UNCLAMPED):
                assert fragment_size(0, seed, **kwargs) == (
                    numpy_fragment_size(0, seed, **kwargs)
                )
        assert layers == set(range(256)) - {1}

    @pytest.mark.parametrize("branch,seed", SLOW_PATH_SEEDS)
    def test_slow_branches(self, branch, seed):
        assert numpy_path(seed)[0] == branch
        assert _standard_normal(seed) == (
            np.random.default_rng(seed).standard_normal()
        )
        for kwargs in ({}, UNCLAMPED, {"mean": 64}, {"mean": 16384}):
            assert fragment_size(0, seed, **kwargs) == (
                numpy_fragment_size(0, seed, **kwargs)
            )


class TestShapeRefused:
    """NumPy raised ``ValueError: sigma < 0``; a non-positive mean got
    through it as a NaN or a zero size."""

    @pytest.mark.parametrize("mean", [0, -5, float("nan"), float("inf"),
                                      -float("inf")])
    def test_mean_must_be_positive_and_finite(self, mean):
        with pytest.raises(FragmentError, match="mean"):
            fragment_size(1, 0, mean=mean)

    @pytest.mark.parametrize("spread", [-0.25, float("nan"), float("inf")])
    def test_spread_must_be_non_negative_and_finite(self, spread):
        with pytest.raises(FragmentError, match="spread"):
            fragment_size(1, 0, spread=spread)


class TestArena:
    def test_payload_is_a_read_only_view_not_a_copy(self):
        view = fragment_payload(7, 1, 100)
        assert isinstance(view, memoryview) and view.readonly
        assert view.obj is fragment_payload(8, 3, 5000).obj  # one arena

    def test_fragments_load_no_numpy(self):
        """Sizes, payloads and whole fragments are drawn without NumPy,
        checked in a fresh interpreter."""
        child = (
            "import sys\n"
            "from repro.daq.events import (\n"
            "    fragment_payload, fragment_size, synthesize_fragment)\n"
            "assert len(fragment_payload(7, 1, 100)) == 100\n"
            "assert 64 <= fragment_size(7, 1) <= 16384\n"
            "synthesize_fragment(7, 1, mean=512)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]

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
