"""The inter-node wire encapsulation.

A frame leaving a node is prefixed with a small transport header
carrying the source node (for proxy resolution at the receiver) and the
total length (for stream transports like TCP that must re-frame).  The
frame's ``target`` field has already been rewritten by the PTA to the
TiD that is *local at the receiver*; the ``initiator`` still names the
sender-local TiD and is proxied on arrival.

Layout (little-endian)::

    offset  size  field
    ------  ----  ---------------------------
       0      4   magic  (0x58444151 = "XDAQ" backwards-friendly)
       4      4   source node id
       8      4   frame length (header + payload)
      12      ..  the I2O frame bytes

Zero-copy forms (paper §4: "All communication employs a zero-copy
scheme as the message buffers are taken from the executive's memory
pool"):

* :func:`encode_wire_parts` returns ``(wire_header, frame_view)``
  iovecs for ``sendmsg``-style vectored writers — the frame's pool
  buffer goes on the wire without serialisation;
* :func:`decode_wire` returns a :class:`memoryview` of the frame bytes
  instead of forcing a copy;
* :func:`parse_wire_header` checks a stream's 12-byte header, so a
  stream transport can loan the receiving pool block and ``recv_into``
  the frame straight into it.
"""

from __future__ import annotations

import struct

from repro.i2o.errors import FrameFormatError
from repro.i2o.frame import HEADER_SIZE, MAX_FRAME_SIZE, Frame

WIRE_MAGIC = 0x58444151
_WIRE = struct.Struct("<III")
WIRE_HEADER_SIZE = _WIRE.size  # 12


def encode_wire_parts(src_node: int, frame: Frame) -> tuple[bytes, memoryview]:
    """Scatter-gather form of :func:`encode_wire`.

    Returns the 12-byte wire header plus a zero-copy view of the frame,
    ready for a ``sendmsg``-style vectored writer.  The view aliases
    the frame's (pool) buffer — it must be consumed before the frame's
    block is freed.
    """
    return _WIRE.pack(WIRE_MAGIC, src_node, frame.total_size), frame.view


def encode_wire(src_node: int, frame: Frame) -> bytes:
    """Serialise a frame for transmission from ``src_node`` (one flat
    copy; vectored writers use :func:`encode_wire_parts` instead)."""
    header, body = encode_wire_parts(src_node, frame)
    return header + bytes(body)


def parse_wire_header(data: bytes | bytearray | memoryview) -> tuple[int, int]:
    """The one wire header check, for messages and streams alike:
    ``(src_node, frame_len)``, or :class:`FrameFormatError` for a bad
    magic, a length no frame can have, or ``data`` short of a header."""
    if len(data) < WIRE_HEADER_SIZE:
        raise FrameFormatError("stream ended mid wire header")
    magic, src_node, length = _WIRE.unpack_from(data, 0)
    if magic != WIRE_MAGIC:
        raise FrameFormatError(f"bad wire magic 0x{magic:08X}")
    if length < HEADER_SIZE or length > MAX_FRAME_SIZE:
        raise FrameFormatError(f"implausible frame length {length}")
    return src_node, length


def decode_wire(data: bytes | bytearray | memoryview) -> tuple[int, memoryview]:
    """Split a wire message into ``(src_node, frame_view)``.

    The returned view aliases ``data`` — zero-copy.  A caller that
    keeps the frame beyond the buffer's lifetime must land it in pool
    memory (``PeerTransport.ingest_frame_bytes`` does exactly that).

    Raises :class:`FrameFormatError` on any structural problem — a
    transport receiving garbage must fail loudly, not deliver it.
    """
    view = memoryview(data)
    if len(view) < WIRE_HEADER_SIZE + HEADER_SIZE:
        raise FrameFormatError(f"wire message of {len(view)} bytes is too short")
    src_node, length = parse_wire_header(view)
    if WIRE_HEADER_SIZE + length != len(view):
        raise FrameFormatError(
            f"length field {length} disagrees with message size {len(view)}"
        )
    return src_node, view[WIRE_HEADER_SIZE:]
