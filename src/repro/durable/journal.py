r"""The journal record codec: durable frames for the reliable stream.

A journal is a flat append-only byte string of self-delimiting
records.  Three kinds exist:

* ``REC_SEND`` — a message committed for reliable delivery: sequence
  number, stable destination address ``(node, remote_tid)`` and the
  payload bytes.  Written *before* the first transmission (write-ahead
  discipline), so a crash after the send can always replay it.
* ``REC_ACK`` — sequence numbers that were acknowledged (or
  permanently retired through ``on_failed``): the header ``seq`` and
  every little-endian u64 the payload lists, so one record retires a
  whole acknowledgement frame.  The matching SENDs are dead and a
  compaction may drop them and the record.  A single-seq ACK has an
  empty payload.
* ``REC_META`` — the endpoint's identity ``(node, tid)`` and the
  sequence-space high-water mark (``seq`` = next unused sequence
  number).  Written when a journal is first bound to an endpoint and
  as the head of every compacted segment, so a restarted endpoint
  resumes its sequence space even when every send has been acked away.

Record layout (little-endian)::

    u8  kind        REC_SEND | REC_ACK | REC_META
    u64 seq
    u32 node        \  SEND: stable destination; META: endpoint identity
    u32 tid         /  (zero for ACK)
    u32 payload_len
    u32 payload_crc seeded CRC32 (the wire discipline, see seeded_crc)
    u32 header_crc  CRC32 over the 25 bytes above
    payload_len bytes of payload (ACK: u64 seqs retired beside ``seq``)

The two CRCs split the failure modes a reader must distinguish:

* **torn tail** — the process died mid-append (or mid-flush): the file
  ends with fewer bytes than the next record declares.  The header CRC
  still verifies (or there aren't even 29 bytes to check), so the
  reader *truncates* to the last whole record and replays that
  record-aligned prefix.  This is the expected crash artefact and is
  not an error.
* **corruption** — all declared bytes are present but a CRC fails:
  bit rot, a concurrent writer, a bad disk.  The reader raises
  :class:`JournalCorruption` with the byte offset; replaying past a
  lying length field would desynchronise every later record, so
  nothing after the damage is trusted.

A corrupted ``payload_len`` cannot masquerade as a torn tail: the
length field is covered by the header CRC, which fails first.  An ACK
whose verified length is not a whole number of u64 seqs is refused as
corruption too, like an unknown kind under a valid header CRC.

The payload CRC reuses the seeded-CRC discipline of
``repro.core.reliable`` (CRC over the sequence number *and* the
bytes), so a record landing at the wrong position in the file cannot
replay intact bytes under the wrong sequence number — the same
argument the wire format makes, applied to the disk.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.i2o.errors import I2OError

REC_SEND = 0x01
REC_ACK = 0x02
REC_META = 0x03

_KINDS = frozenset((REC_SEND, REC_ACK, REC_META))

#: kind u8, seq u64, node u32, tid u32, payload_len u32, payload_crc u32
_FIXED = struct.Struct("<BQIIII")
_CRC = struct.Struct("<I")
#: total header size: the fixed fields + header_crc
HEADER_SIZE = _FIXED.size + _CRC.size

#: Journal payloads are whole reliable-stream payloads; anything this
#: large is a caller bug, and bounding it keeps a corrupted length
#: field from asking the reader for gigabytes (defence in depth — the
#: header CRC already rejects it).
MAX_RECORD_PAYLOAD = 16 * 1024 * 1024

_SEED = struct.Struct("<QI")


def seeded_crc(seq: int, payload: bytes) -> int:
    """CRC32 over the sequence number *and* the payload.

    Identical to the reliable endpoint's wire CRC (it imports this
    function), so the integrity argument is the same end to end: RAM,
    wire and disk all refuse to present ``payload`` under any sequence
    number other than ``seq``.
    """
    return zlib.crc32(payload, zlib.crc32(_SEED.pack(seq, 0)))


class JournalError(I2OError):
    """Malformed use of the journal API (not a damaged file)."""


class JournalCorruption(JournalError):
    """A record failed its CRC: the journal is damaged at ``offset``.

    Deliberately *not* raised for a torn tail — dying mid-write is the
    normal crash artefact and recovery truncates it silently.  This
    exception means bytes that claim to be complete do not check out,
    and nothing at or after ``offset`` can be trusted.
    """

    def __init__(self, offset: int, reason: str) -> None:
        super().__init__(f"journal corrupt at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason
        #: records verified before the damage (diagnostics only)
        self.partial: list[Record] = []


@dataclass(frozen=True)
class Record:
    """One decoded journal record."""

    kind: int
    seq: int
    node: int = 0
    tid: int = 0
    payload: bytes = b""


@dataclass
class DecodeResult:
    """Outcome of decoding a journal byte string.

    ``consumed`` is the length of the record-aligned prefix that was
    replayed; ``torn_bytes`` counts trailing bytes discarded as a torn
    tail (zero for a clean journal).
    """

    records: list[Record]
    consumed: int
    torn_bytes: int

    @property
    def truncated(self) -> bool:
        return self.torn_bytes > 0


def encode_header(
    kind: int, seq: int, node: int, tid: int, payload: bytes,
    payload_crc: int | None = None,
) -> bytes:
    """The ``HEADER_SIZE`` bytes that precede ``payload`` on disk (the
    segment store writes the two as one gathered write, uncopied).
    ``payload_crc``, if given, must be ``seeded_crc(seq, payload)`` —
    the reliable endpoint passes the wire CRC it has just computed."""
    if kind not in _KINDS:
        raise JournalError(f"unknown record kind 0x{kind:02x}")
    if seq < 0 or seq > 0xFFFF_FFFF_FFFF_FFFF:
        raise JournalError(f"seq {seq} out of u64 range")
    if len(payload) > MAX_RECORD_PAYLOAD:
        raise JournalError(
            f"record payload of {len(payload)} bytes exceeds "
            f"{MAX_RECORD_PAYLOAD}"
        )
    if payload_crc is None:
        payload_crc = seeded_crc(seq, payload)
    fixed = _FIXED.pack(kind, seq, node, tid, len(payload), payload_crc)
    return fixed + _CRC.pack(zlib.crc32(fixed))


def ack_payload(seqs: tuple[int, ...]) -> bytes:
    """The payload of an ACK record that retires ``seqs`` beside its
    header ``seq`` (empty for none: the single-seq record)."""
    return struct.pack(f"<{len(seqs)}Q", *seqs)


def acked_seqs(record: Record) -> tuple[int, ...]:
    """Every seq an ACK record retires: its header ``seq``, then the
    ones its payload lists."""
    count = len(record.payload) // 8
    return (record.seq, *struct.unpack(f"<{count}Q", record.payload))


def encode_record(record: Record) -> bytes:
    """Serialise one record; the inverse of one :func:`decode_journal`
    step."""
    return encode_header(
        record.kind, record.seq, record.node, record.tid, record.payload
    ) + record.payload


def decode_journal(data: bytes | bytearray | memoryview) -> DecodeResult:
    """Decode a journal byte string into records.

    Returns every whole, verified record; a torn tail is reported via
    ``torn_bytes`` and never produces a record.  Damaged bytes raise
    :class:`JournalCorruption` (records decoded *before* the damage
    are attached to the exception as ``partial`` for diagnostics, but
    recovery must not act on them without operator intervention).
    """
    view = memoryview(data)
    records: list[Record] = []
    offset = 0
    total = len(view)
    while offset < total:
        remaining = total - offset
        if remaining < HEADER_SIZE:
            break  # torn tail: not even a whole header
        fixed = bytes(view[offset:offset + _FIXED.size])
        (header_crc,) = _CRC.unpack_from(view, offset + _FIXED.size)
        if zlib.crc32(fixed) != header_crc:
            raise _corrupt(offset, "record header CRC mismatch", records)
        kind, seq, node, tid, payload_len, payload_crc = _FIXED.unpack(fixed)
        if kind not in _KINDS:
            raise _corrupt(
                offset, f"unknown record kind 0x{kind:02x}", records
            )
        if payload_len > MAX_RECORD_PAYLOAD:
            raise _corrupt(
                offset, f"payload length {payload_len} exceeds bound", records
            )
        if kind == REC_ACK and payload_len % 8:
            raise _corrupt(
                offset,
                f"ACK payload of {payload_len} bytes is not whole u64 seqs",
                records,
            )
        if remaining < HEADER_SIZE + payload_len:
            break  # torn tail: the payload never finished writing
        payload = bytes(
            view[offset + HEADER_SIZE:offset + HEADER_SIZE + payload_len]
        )
        if seeded_crc(seq, payload) != payload_crc:
            raise _corrupt(offset, "record payload CRC mismatch", records)
        records.append(
            Record(kind=kind, seq=seq, node=node, tid=tid, payload=payload)
        )
        offset += HEADER_SIZE + payload_len
    return DecodeResult(
        records=records, consumed=offset, torn_bytes=total - offset
    )


def _corrupt(
    offset: int, reason: str, partial: list[Record]
) -> JournalCorruption:
    exc = JournalCorruption(offset, reason)
    exc.partial = partial
    return exc
