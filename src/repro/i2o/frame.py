"""The I2O message frame (paper figure 5).

One binary layout for every message in the system.  A frame is a
buffer — normally a block loaned from the executive's memory pool
(:mod:`repro.mem`), so that building, routing, transmitting and
dispatching a message never copies the payload (paper §4: "All
communication employs a zero-copy scheme as the message buffers are
taken from the executive's memory pool") — plus a decoded copy of its
header, read once per hop; :class:`Frame` states the contract.

Layout (little-endian, 32-byte fixed header)::

    offset  size  field
    ------  ----  -----------------------------------------------------
       0      1   version            (I2O_VERSION = 0x20 for v2.0)
       1      1   msg_flags          (REPLY / FAIL / MORE / LAST)
       2      1   priority           (0 = highest .. 6 = lowest)
       3      1   function           (0xFF = private, see function_codes)
       4      2   target_tid         (12-bit TiD, destination device)
       6      2   initiator_tid      (12-bit TiD, source device)
       8      4   payload_size       (bytes following the header)
      12      2   organization_id    (vendor id for private messages)
      14      2   xfunction_code     (private function discriminator)
      16      8   initiator_context  (returned untouched in replies)
      24      8   transaction_context(correlates fragments / transactions)
      32      ..  payload

Deviations from the on-the-wire I2O v2.0 spec, chosen deliberately and
kept stable:

* the spec counts ``MessageSize`` in 32-bit words in a 16-bit field,
  which cannot express the paper's own 256 KB maximum block; we store a
  byte count in 32 bits;
* ``target_tid``/``initiator_tid`` occupy a full 16 bits each instead
  of packed 12+12+8; values remain 12-bit (validated);
* contexts are 64-bit from the start (the spec grew them in v2.0).
"""

from __future__ import annotations

import struct
from typing import Any

from repro.i2o.errors import FrameFormatError
from repro.i2o.function_codes import PRIVATE, function_name
from repro.i2o.tid import MAX_TID, TID_BROADCAST

I2O_VERSION = 0x20

FLAG_REPLY = 0x01  # this frame answers a request
FLAG_FAIL = 0x02  # reply signals failure / transaction error
FLAG_MORE = 0x04  # more fragments of this transaction follow
FLAG_LAST = 0x08  # final fragment of a multi-frame transaction

_ALL_FLAGS = FLAG_REPLY | FLAG_FAIL | FLAG_MORE | FLAG_LAST

_HEADER = struct.Struct("<BBBBHHIHHQQ")
HEADER_SIZE = _HEADER.size  # 32
_TID = struct.Struct("<H")  # the setters' write-through codecs
_CONTEXT = struct.Struct("<Q")
_U64 = 0xFFFFFFFFFFFFFFFF

NUM_PRIORITIES = 7  # paper §4: "There exist seven priority levels"
DEFAULT_PRIORITY = 3

#: Paper §4: "Memory is allocated in fixed sized blocks with a maximum
#: length of 256 KB."  A frame (header + payload) must fit one block.
MAX_FRAME_SIZE = 256 * 1024
MAX_PAYLOAD_SIZE = MAX_FRAME_SIZE - HEADER_SIZE


def check_header(target: int, initiator: int, function: int,
                 payload_size: int, priority: int, flags: int) -> None:
    """Refuse, by name, header arguments no frame may carry: the API
    door's one check, run before anything is loaned or written.  The
    broadcast TiD addresses but never originates: no receiver can
    proxy it as a reply address."""
    if not 0 <= target <= MAX_TID:
        raise FrameFormatError(f"target TiD {target} out of range")
    if not 0 <= initiator < TID_BROADCAST:
        raise FrameFormatError(f"initiator TiD {initiator} out of range")
    if not 0 <= function <= 0xFF:
        raise FrameFormatError(f"function 0x{function:X} out of range")
    if payload_size < 0:
        raise FrameFormatError(f"payload size {payload_size} is negative")
    if not 0 <= priority < NUM_PRIORITIES:
        raise FrameFormatError(f"priority {priority} out of range 0..6")
    if flags & ~_ALL_FLAGS:
        raise FrameFormatError(f"unknown flag bits 0x{flags:02X}")


class Frame:
    """One I2O message: a buffer plus a decoded copy of its header.

    The **buffer** is the wire truth — ``view``, ``tobytes``, a block
    hand-off, the journal and the CRC all read it.  The eleven header
    fields are also held **decoded in slots**, filled once: by one bulk
    unpack over existing bytes, or straight from the arguments of
    :meth:`put_header`.  Getters read the slots; every setter keeps its
    range check and **writes through** to buffer and slot.
    :meth:`validate` **resynchronises**: it re-reads the buffer, so
    wire input, hostile bytes and recycled blocks are judged by what is
    really there.  Header bytes must not be written behind a live frame
    by any other route (``_buf`` has no reader outside this module).

    ``Frame`` never owns payload memory itself: ``buffer`` is any
    writable buffer (a :class:`memoryview` of a pool block, or a
    ``bytearray`` for standalone use in tests).  ``block`` optionally
    records the pool block backing the buffer so ``frame_free`` can
    return it (see :class:`repro.mem.pool.BufferPool`).

    A pool frame is its block's own (``PoolBlock.frame``), spans the
    whole block (``payload``, ``view`` and ``tobytes`` stop at
    ``payload_size``) and is re-headed by every loan: a handle is valid
    only while ``block`` is set, after which it may carry the next loan.
    """

    __slots__ = (
        "_buf", "block", "trace_mark",
        "_version", "_flags", "_priority", "_function", "_target",
        "_initiator", "_payload_size", "_organization", "_xfunction",
        "_initiator_context", "_transaction_context",
    )

    def __init__(self, buffer: memoryview | bytearray, block: Any = None) -> None:
        self._attach(buffer, block)
        self._decode()

    def _attach(self, buffer: memoryview | bytearray, block: Any) -> None:
        if isinstance(buffer, bytearray):
            buffer = memoryview(buffer)
        if buffer.readonly:
            raise FrameFormatError("frame buffer must be writable")
        if len(buffer) < HEADER_SIZE:
            raise FrameFormatError(
                f"buffer too small for header: {len(buffer)} < {HEADER_SIZE}"
            )
        self._buf = buffer
        self.block = block
        #: enqueue timestamp while the frame sits in the scheduler (see
        #: Executive._enqueue).  Lives on the frame object itself so a
        #: recycled frame can never alias a stale entry keyed by id().
        self.trace_mark: int | None = None

    def _decode(self) -> None:
        """Fill the header slots from the buffer — the one bulk unpack."""
        (self._version, self._flags, self._priority, self._function,
         self._target, self._initiator, self._payload_size,
         self._organization, self._xfunction, self._initiator_context,
         self._transaction_context) = _HEADER.unpack_from(self._buf, 0)

    # -- construction -------------------------------------------------------
    @classmethod
    def _undecoded(cls, buffer: memoryview | bytearray, block: Any) -> "Frame":
        """Wrap ``buffer`` without reading it.  The header slots are
        unset until the caller's :meth:`put_header` (a frame being
        built) or :meth:`validate` (a frame being received) fills them,
        so either path pays one pack or one unpack, not both."""
        frame = cls.__new__(cls)
        frame._attach(buffer, block)
        return frame

    @classmethod
    def build(
        cls,
        *,
        target: int,
        initiator: int,
        function: int = PRIVATE,
        payload: bytes | bytearray | memoryview = b"",
        priority: int = DEFAULT_PRIORITY,
        flags: int = 0,
        organization: int = 0,
        xfunction: int = 0,
        initiator_context: int = 0,
        transaction_context: int = 0,
        buffer: memoryview | bytearray | None = None,
        block: Any = None,
    ) -> "Frame":
        """Build a frame, writing header and payload into ``buffer``.

        Without ``buffer`` a right-sized ``bytearray`` is allocated
        (convenient for tests and small control traffic); with a pool
        block's memoryview this is the zero-copy path.
        """
        size = len(payload)
        if size > MAX_PAYLOAD_SIZE:
            raise FrameFormatError(
                f"payload {size} exceeds the 256 KB one-block limit (DESIGN §1)"
            )
        if buffer is None:
            buffer = bytearray(HEADER_SIZE + size)
        frame = cls._undecoded(buffer, block)
        if HEADER_SIZE + size > len(frame._buf):
            raise FrameFormatError(
                f"payload {size} does not fit buffer of {len(frame._buf)}"
            )
        check_header(target, initiator, function, size, priority, flags)
        frame.put_header(flags, priority, function, target, initiator, size,
                         organization, xfunction, initiator_context,
                         transaction_context)
        if size:
            frame._buf[HEADER_SIZE : HEADER_SIZE + size] = payload
        return frame

    @classmethod
    def parse(cls, data: bytes | bytearray | memoryview, block: Any = None) -> "Frame":
        """Wrap and validate received bytes (copying only if immutable)."""
        if isinstance(data, bytes):
            data = bytearray(data)
        elif isinstance(data, memoryview) and data.readonly:
            data = bytearray(data)
        return cls._undecoded(data, block).validate()

    # -- raw header access ----------------------------------------------------
    def header_fields(self) -> tuple:
        """Every header field, in the order :meth:`put_header` packs
        them (the figure-5 layout)."""
        return (
            self._version, self._flags, self._priority, self._function,
            self._target, self._initiator, self._payload_size,
            self._organization, self._xfunction, self._initiator_context,
            self._transaction_context,
        )

    def put_header(self, flags: int, priority: int, function: int, target: int,
                   initiator: int, payload_size: int, organization: int,
                   xfunction: int, initiator_context: int,
                   transaction_context: int) -> None:
        """Write a whole header whose fields :func:`check_header` has
        passed: one pack, no range check (the ``put_*`` writers trust
        their caller; the setters and :meth:`build` check)."""
        organization &= 0xFFFF
        xfunction &= 0xFFFF
        initiator_context &= _U64
        transaction_context &= _U64
        _HEADER.pack_into(
            self._buf, 0, I2O_VERSION, flags, priority, function, target,
            initiator, payload_size, organization, xfunction,
            initiator_context, transaction_context)
        self._version = I2O_VERSION
        self._flags = flags
        self._priority = priority
        self._function = function
        self._target = target
        self._initiator = initiator
        self._payload_size = payload_size
        self._organization = organization
        self._xfunction = xfunction
        self._initiator_context = initiator_context
        self._transaction_context = transaction_context

    # -- field properties -------------------------------------------------
    @property
    def version(self) -> int:
        return self._version

    @property
    def flags(self) -> int:
        return self._flags

    @flags.setter
    def flags(self, value: int) -> None:
        if value & ~_ALL_FLAGS:
            raise FrameFormatError(f"unknown flag bits 0x{value:02X}")
        self._buf[1] = value
        self._flags = value

    @property
    def priority(self) -> int:
        return self._priority

    @priority.setter
    def priority(self, value: int) -> None:
        if not 0 <= value < NUM_PRIORITIES:
            raise FrameFormatError(f"priority {value} out of range 0..6")
        self._buf[2] = value
        self._priority = value

    @property
    def function(self) -> int:
        return self._function

    @property
    def target(self) -> int:
        return self._target

    @target.setter
    def target(self, tid: int) -> None:
        if not 0 <= tid <= MAX_TID:
            raise FrameFormatError(f"target TiD {tid} out of range")
        self.put_target(tid)

    def put_target(self, tid: int) -> None:
        """``target = tid`` unchecked, for a TiD the route table checked."""
        _TID.pack_into(self._buf, 4, tid)
        self._target = tid

    @property
    def initiator(self) -> int:
        return self._initiator

    @initiator.setter
    def initiator(self, tid: int) -> None:
        if not 0 <= tid < TID_BROADCAST:
            raise FrameFormatError(f"initiator TiD {tid} out of range")
        self.put_initiator(tid)

    def put_initiator(self, tid: int) -> None:
        """``initiator = tid`` unchecked, for a TiD the route table checked."""
        _TID.pack_into(self._buf, 6, tid)
        self._initiator = tid

    @property
    def payload_size(self) -> int:
        return self._payload_size

    @property
    def organization(self) -> int:
        return self._organization

    @property
    def xfunction(self) -> int:
        return self._xfunction

    @property
    def initiator_context(self) -> int:
        return self._initiator_context

    @initiator_context.setter
    def initiator_context(self, value: int) -> None:
        value &= _U64
        _CONTEXT.pack_into(self._buf, 16, value)
        self._initiator_context = value

    @property
    def transaction_context(self) -> int:
        return self._transaction_context

    @transaction_context.setter
    def transaction_context(self, value: int) -> None:
        value &= _U64
        _CONTEXT.pack_into(self._buf, 24, value)
        self._transaction_context = value

    # -- flag helpers -------------------------------------------------------
    @property
    def is_reply(self) -> bool:
        return bool(self._flags & FLAG_REPLY)

    @property
    def is_failure(self) -> bool:
        return bool(self._flags & FLAG_FAIL)

    # -- payload ------------------------------------------------------------
    @property
    def payload(self) -> memoryview:
        """Zero-copy writable view of the payload bytes."""
        return self._buf[HEADER_SIZE : HEADER_SIZE + self._payload_size]

    @property
    def total_size(self) -> int:
        return HEADER_SIZE + self._payload_size

    @property
    def view(self) -> memoryview:
        """Zero-copy view of the whole frame (header + payload) — the
        iovec a scatter-gather transport puts on the wire.  Aliases the
        frame's buffer: it must be consumed before the block is freed."""
        return self._buf[: HEADER_SIZE + self._payload_size]

    def tobytes(self) -> bytes:
        """Serialise header + payload for the wire (this is the one copy
        a byte-stream transport like TCP must make)."""
        return bytes(self._buf[: HEADER_SIZE + self._payload_size])

    # -- validation & comparison -----------------------------------------
    def validate(self, size: int | None = None) -> "Frame":
        """Re-read the header from the buffer and check structural
        well-formedness, within the first ``size`` bytes when only
        those were handed over; returns self for chaining.

        This is where the slots resynchronise with the wire truth: it
        runs on every frame a wire delivers and on every non-pool frame
        at ``frame_send``, so the checks judge the bytes, never a cached
        copy of them.  A pool frame handed over in-process is trusted
        instead (DESIGN, "Trust boundaries").
        """
        self._decode()
        version = self._version
        if version != I2O_VERSION:
            raise FrameFormatError(
                f"bad version 0x{version:02X}, expected 0x{I2O_VERSION:02X}"
            )
        if self._flags & ~_ALL_FLAGS:
            raise FrameFormatError(f"unknown flag bits 0x{self._flags:02X}")
        if self._priority >= NUM_PRIORITIES:
            raise FrameFormatError(f"priority {self._priority} out of range")
        if self._target > MAX_TID or self._initiator > MAX_TID:
            raise FrameFormatError("TiD out of 12-bit range")
        payload_size = self._payload_size
        total = HEADER_SIZE + payload_size
        bound = len(self._buf) if size is None else min(size, len(self._buf))
        if total > bound:
            raise FrameFormatError(
                f"declared payload {payload_size} overruns buffer of {bound}"
            )
        if total > MAX_FRAME_SIZE:
            raise FrameFormatError(f"frame {total} exceeds 256 KB block")
        return self

    def same_message(self, other: "Frame") -> bool:
        """Header-and-payload equality (identity of content, not buffer)."""
        return self.tobytes() == other.tobytes()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Frame {function_name(self.function)} "
            f"tid {self.initiator}->{self.target} prio={self.priority} "
            f"xfunc=0x{self.xfunction:04X} size={self.payload_size} "
            f"flags=0x{self.flags:02X}>"
        )
