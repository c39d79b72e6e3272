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
import struct
import zlib
from dataclasses import dataclass
from typing import Any

from repro.i2o.errors import I2OError

_HDR = struct.Struct("<QII")
_CRC = struct.Struct("<I")

FRAGMENT_OVERHEAD = _HDR.size + _CRC.size  # 20 bytes

#: The front-end memory, 128 KiB built once: a payload starts at any of
#: the first 64 Ki offsets and runs up to 64 KiB.  (SHAKE, not a NumPy
#: Generator: the first ``default_rng`` of a process costs 12 ms and
#: 2.4 MB, which every importer would pay.)
_ARENA = memoryview(hashlib.shake_256(b"repro.daq front end").digest(1 << 17))


#: NumPy, loaded by the first :func:`fragment_size` rather than by
#: importing this module (it is most of a native node's import time);
#: ``events.np`` reads it through the module ``__getattr__``.
_np: Any = None


def _numpy() -> Any:
    global _np
    if _np is None:
        import numpy

        _np = numpy
    return _np


def __getattr__(name: str) -> Any:
    if name == "np":
        return _numpy()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FragmentError(I2OError):
    """Malformed or corrupt fragment."""


@dataclass(frozen=True)
class FragmentHeader:
    event_id: int
    ru_id: int
    length: int


def fragment_size(event_id: int, ru_id: int, mean: int = 2048, spread: float = 0.25,
                  minimum: int = 64, maximum: int = 16384) -> int:
    """Deterministic pseudo-random payload size for (event, ru).

    Log-normal-ish around ``mean`` — detector occupancy fluctuates per
    event and channel, which is what makes event-builder traffic
    irregular.  Same (event, ru) always yields the same size, so any
    node can predict any fragment without communication.
    """
    np = _np or _numpy()
    rng = np.random.default_rng((event_id * 0x9E3779B1 + ru_id) & 0xFFFFFFFF)
    size = int(rng.lognormal(mean=np.log(mean), sigma=spread))
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
