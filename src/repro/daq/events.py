"""Synthetic detector data: fragments and their wire format.

A *fragment* is one readout unit's share of one physics event.  The
paper's real source (CMS front-end electronics) has the data in memory
before software sees it, so the substitute is an arena slice: payload
sizes are drawn per (event, ru) from a seeded stream, contents are a
read-only view into one seeded pattern arena (the "front-end memory"),
and a CRC32 trailer lets builders verify end-to-end integrity through
every transport — corruption anywhere in the zero-copy path would
surface here.

Fragment wire layout (little-endian)::

    offset  size  field
    ------  ----  -------------------
       0      8   event id
       8      4   readout unit id
      12      4   payload length
      16      ..  payload bytes
      ..      4   CRC32 of payload
"""

from __future__ import annotations

import hashlib
import math
import struct
import zlib
from dataclasses import dataclass

from repro.daq._ziggurat import FI, INV_R, KI, R, WI
from repro.i2o.errors import I2OError

_HDR = struct.Struct("<QII")
_CRC = struct.Struct("<I")

FRAGMENT_OVERHEAD = _HDR.size + _CRC.size  # 20 bytes

#: The front-end memory, 128 KiB built once: a payload starts at any of
#: the first 64 Ki offsets and runs up to 64 KiB.  (SHAKE, not a NumPy
#: Generator: the first ``default_rng`` of a process costs 12 ms and
#: 2.4 MB, which every importer would pay.)
_ARENA = memoryview(hashlib.shake_256(b"repro.daq front end").digest(1 << 17))


class FragmentError(I2OError):
    """Malformed or corrupt fragment."""


@dataclass(frozen=True)
class FragmentHeader:
    event_id: int
    ru_id: int
    length: int


#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: ``next_double``: the top 53 bits of a word, scaled to [0, 1)
_UNIT = 1.0 / (1 << 53)


def _pcg64(seed: int) -> tuple[int, int]:
    """``(state, inc)`` of ``np.random.PCG64(seed)`` for a 32-bit ``seed``.

    NumPy's ``SeedSequence(seed).generate_state(4, uint64)`` hashes a
    one-word entropy pool with ``hashmix``/``mix``.  Only the seed
    varies, so the hash-constant sequence is folded into the literals
    and the 12 mixing rounds and 8 output words are unrolled (the three
    zero-entropy pool words start as constants).  Then PCG64's
    ``srandom``: the first two words are the state, the last two the
    stream.
    """
    p0 = ((seed ^ 0x43B0D7E5) * 0xAE5A53A9) & 0xFFFFFFFF
    p0 ^= p0 >> 16
    t = ((p0 ^ 0x9205B1D5) * 0xE9096E59) & 0xFFFFFFFF
    p1 = (0xD1BF6155 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    p1 ^= p1 >> 16
    t = ((p0 ^ 0xE9096E59) * 0x8D5CB6AD) & 0xFFFFFFFF
    p2 = (0x5228666D - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    p2 ^= p2 >> 16
    t = ((p0 ^ 0x8D5CB6AD) * 0x9BB16511) & 0xFFFFFFFF
    p3 = (0x74577501 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    p3 ^= p3 >> 16
    t = ((p1 ^ 0x9BB16511) * 0x00C238C5) & 0xFFFFFFFF
    p0 = (0xCA01F9DD * p0 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    p0 ^= p0 >> 16
    t = ((p1 ^ 0x00C238C5) * 0x4D029A09) & 0xFFFFFFFF
    p2 = (0xCA01F9DD * p2 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    p2 ^= p2 >> 16
    t = ((p1 ^ 0x4D029A09) * 0xCC132E1D) & 0xFFFFFFFF
    p3 = (0xCA01F9DD * p3 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    p3 ^= p3 >> 16
    t = ((p2 ^ 0xCC132E1D) * 0x83A97B41) & 0xFFFFFFFF
    p0 = (0xCA01F9DD * p0 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    p0 ^= p0 >> 16
    t = ((p2 ^ 0x83A97B41) * 0xFA8DDCB5) & 0xFFFFFFFF
    p1 = (0xCA01F9DD * p1 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    p1 ^= p1 >> 16
    t = ((p2 ^ 0xFA8DDCB5) * 0xAC4C06B9) & 0xFFFFFFFF
    p3 = (0xCA01F9DD * p3 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    p3 ^= p3 >> 16
    t = ((p3 ^ 0xAC4C06B9) * 0x26FF5A8D) & 0xFFFFFFFF
    p0 = (0xCA01F9DD * p0 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    p0 ^= p0 >> 16
    t = ((p3 ^ 0x26FF5A8D) * 0x0E554A71) & 0xFFFFFFFF
    p1 = (0xCA01F9DD * p1 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    p1 ^= p1 >> 16
    t = ((p3 ^ 0x0E554A71) * 0x78C50DA5) & 0xFFFFFFFF
    p2 = (0xCA01F9DD * p2 - 0x4973F715 * (t ^ t >> 16)) & 0xFFFFFFFF
    p2 ^= p2 >> 16
    w0 = ((p0 ^ 0x8B51F9DD) * 0x464A0A99) & 0xFFFFFFFF
    w0 ^= w0 >> 16
    w1 = ((p1 ^ 0x464A0A99) * 0x819D14A5) & 0xFFFFFFFF
    w1 ^= w1 >> 16
    w2 = ((p2 ^ 0x819D14A5) * 0xD369FDC1) & 0xFFFFFFFF
    w2 ^= w2 >> 16
    w3 = ((p3 ^ 0xD369FDC1) * 0x501638AD) & 0xFFFFFFFF
    w3 ^= w3 >> 16
    w4 = ((p0 ^ 0x501638AD) * 0xA600C129) & 0xFFFFFFFF
    w4 ^= w4 >> 16
    w5 = ((p1 ^ 0xA600C129) * 0x8B0167F5) & 0xFFFFFFFF
    w5 ^= w5 >> 16
    w6 = ((p2 ^ 0x8B0167F5) * 0x5C1E2ED1) & 0xFFFFFFFF
    w6 ^= w6 >> 16
    w7 = ((p3 ^ 0x5C1E2ED1) * 0x301D747D) & 0xFFFFFFFF
    w7 ^= w7 >> 16
    initstate = w1 << 96 | w0 << 64 | w3 << 32 | w2
    inc = (w5 << 97 | w4 << 65 | w7 << 33 | w6 << 1 | 1) & _M128
    return ((inc + initstate) * _PCG_MULT + inc) & _M128, inc


def _pcg64_next(state: int, inc: int) -> tuple[int, int]:
    """One PCG64 step: the next state and its XSL-RR 64-bit word."""
    state = (state * _PCG_MULT + inc) & _M128
    word = (state >> 64 ^ state) & _M64
    rot = state >> 122
    return state, (word >> rot | word << (64 - rot)) & _M64


def _standard_normal(seed: int) -> float:
    """``np.random.default_rng(seed).standard_normal()``, bit for bit:
    NumPy's 256-layer ziggurat over :func:`_pcg64`."""
    state, inc = _pcg64(seed)
    while True:
        state, r = _pcg64_next(state, inc)
        layer = r & 0xFF
        rabs = r >> 9 & 0xFFFFFFFFFFFFF
        x = rabs * WI[layer]
        if r & 0x100:
            x = -x
        if rabs < KI[layer]:
            return x  # the fast path: 99.3 % of draws
        if layer == 0:  # the tail beyond R
            while True:
                state, u = _pcg64_next(state, inc)
                state, v = _pcg64_next(state, inc)
                xx = -INV_R * math.log1p(-(u >> 11) * _UNIT)
                yy = -math.log1p(-(v >> 11) * _UNIT)
                if yy + yy > xx * xx:
                    return -(R + xx) if rabs >> 8 & 1 else R + xx
        state, u = _pcg64_next(state, inc)
        edge = (FI[layer - 1] - FI[layer]) * ((u >> 11) * _UNIT) + FI[layer]
        if edge < math.exp(-0.5 * x * x):
            return x  # inside the wedge; else draw again


def check_fragment_shape(mean: float, spread: float = 0.25) -> None:
    """Refuse a log-normal no size can be drawn from: ``mean`` must be
    positive, ``spread`` non-negative, both finite."""
    if not 0 < mean < math.inf:
        raise FragmentError(f"fragment mean must be positive and finite, got {mean!r}")
    if not 0 <= spread < math.inf:
        raise FragmentError(f"fragment spread must be >= 0 and finite, got {spread!r}")


def fragment_size(event_id: int, ru_id: int, mean: int = 2048, spread: float = 0.25,
                  minimum: int = 64, maximum: int = 16384) -> int:
    """Deterministic pseudo-random payload size for (event, ru).

    Log-normal around ``mean`` — detector occupancy fluctuates per
    event and channel, which is what makes event-builder traffic
    irregular.  Same (event, ru) always yields the same size, so any
    node can predict any fragment without communication.  The draw is
    ``np.random.default_rng(seed).lognormal(np.log(mean), spread)``,
    bit for bit, computed without NumPy.
    """
    check_fragment_shape(mean, spread)
    x = _standard_normal((event_id * 0x9E3779B1 + ru_id) & 0xFFFFFFFF)
    size = int(math.exp(math.log(mean) + spread * x))
    return max(minimum, min(maximum, size))


def fragment_payload(event_id: int, ru_id: int, length: int) -> memoryview:
    """Reproducible payload contents for (event, ru): an arena slice."""
    if not 0 <= length <= 1 << 16:
        raise FragmentError(f"no {length}-byte fragment in the arena")
    seed = (event_id * 0x9E3779B1 + ru_id * 0x85EBCA77 + 1) & 0xFFFFFFFF
    return _ARENA[seed >> 16 : (seed >> 16) + length]


def write_fragment(view: memoryview, event_id: int, ru_id: int,
                   data: bytes | memoryview, crc: int) -> None:
    """The one encoder: header, ``data``, ``crc`` packed into a wire-sized ``view``."""
    end = _HDR.size + len(data)
    _HDR.pack_into(view, 0, event_id, ru_id, len(data))
    view[_HDR.size : end] = data
    _CRC.pack_into(view, end, crc)


def verify_fragment(payload: bytes | memoryview) -> FragmentHeader:
    """The one verifier: length consistency and CRC checked on the
    view, nothing copied; raises on any corruption."""
    view = memoryview(payload)
    if len(view) < FRAGMENT_OVERHEAD:
        raise FragmentError(f"fragment of {len(view)} bytes is too short")
    event_id, ru_id, length = _HDR.unpack_from(view, 0)
    end = _HDR.size + length
    if end + _CRC.size != len(view):
        raise FragmentError(f"declared length {length} in a {len(view)}-byte fragment")
    if zlib.crc32(view[_HDR.size : end]) != _CRC.unpack_from(view, end)[0]:
        raise FragmentError(f"CRC mismatch on fragment (event {event_id}, ru {ru_id})")
    return FragmentHeader(event_id, ru_id, length)


def make_fragment_payload(event_id: int, ru_id: int, data: bytes | memoryview) -> bytes:
    """Wrap ``data`` in the fragment wire format."""
    wire = bytearray(FRAGMENT_OVERHEAD + len(data))
    write_fragment(memoryview(wire), event_id, ru_id, data, zlib.crc32(data))
    return bytes(wire)


def parse_fragment(payload: bytes | memoryview) -> tuple[FragmentHeader, bytes]:
    """Validate, then split (the one copy) a fragment; raises on any corruption."""
    header = verify_fragment(payload)
    return header, bytes(memoryview(payload)[_HDR.size : _HDR.size + header.length])


def synthesize_fragment(event_id: int, ru_id: int, *, mean: int = 2048) -> bytes:
    """Generate the full wire-format fragment for (event, ru)."""
    data = fragment_payload(event_id, ru_id, fragment_size(event_id, ru_id, mean=mean))
    return make_fragment_payload(event_id, ru_id, data)
