"""On-disk stores: the journal segment file and the CRC'd snapshot.

:class:`SegmentStore` owns one append-only journal file.  Appends are
batched: records accumulate in memory and hit the file (with an
optional ``fsync``) every ``flush_every`` records — the classic
group-commit trade between durability window and write amplification.
``flush_every=1`` with ``fsync=True`` is the strongest setting: a
record is on stable storage before ``append_*`` returns, so the
write-ahead ordering in the reliable endpoint (journal, *then*
transmit) holds against real process death.  Larger batches shrink the
cost but widen the window in which a committed send can die with the
process; the recovery protocol stays correct either way — the message
is then *lost with an explicit failure at the sender*, never silently
half-delivered (see DESIGN.md §10 for the guarantee table).  One
``append_sends`` (the reliable endpoint's group commit of the sends it
accepted) or ``append_ack`` (an acknowledgement frame's seqs) is one
step of that count and one write, however many records or seqs.  A
flush that fails — a short write or an ``OSError`` — is taken back off
the file before it raises, so the file stays record-aligned and the
kept buffer is retried whole.

Compaction bounds the file: once :data:`COMPACT_MIN_RECORDS` records
have accumulated and most are dead, the store rewrites ``META + live
SENDs`` to a temporary file and atomically replaces the segment
(``os.replace``), so a crash during compaction leaves either the old
or the new file, both valid.  The floor is what amortises the rewrite's
fixed cost (a ``replace`` is milliseconds) over thousands of records.

:class:`SnapshotStore` is the event manager's durable state cell: one
JSON document, length- and CRC-framed, written to a temporary file and
atomically renamed, so a torn snapshot write can never shadow the last
good snapshot.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from io import FileIO
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from repro.config.schema import ParamSchema, ParamSpec
from repro.durable.journal import (
    REC_ACK,
    REC_META,
    REC_SEND,
    JournalCorruption,
    JournalError,
    ack_payload,
    decode_journal,
    encode_header,
)
from repro.durable.replay import PendingSend, ReplayState, replay_records

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config.bootstrap import Cluster

#: The compaction defaults: no rewrite below this many records — 1 KiB
#: messages keep the file under ~4 MiB — and then only when at most
#: this share of them is live.
COMPACT_MIN_RECORDS = 4096
COMPACT_LIVE_RATIO = 0.5
_IOV_MAX = os.sysconf("SC_IOV_MAX")  # parts per gathered write


class SegmentStore:
    """One endpoint's append-only journal segment.

    Opening the store *is* recovery: existing bytes are decoded, a
    torn tail is truncated off the file (appends must land on a
    record-aligned boundary or the next reader would reject them as
    corruption), and the fold of the surviving records is exposed as
    :attr:`recovered` for the endpoint to resume from.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        flush_every: int = 1,
        fsync: bool = False,
        compact_min_records: int = COMPACT_MIN_RECORDS,
        compact_live_ratio: float = COMPACT_LIVE_RATIO,
    ) -> None:
        if flush_every < 1:
            raise JournalError(f"flush_every must be >= 1, got {flush_every}")
        if not 0.0 <= compact_live_ratio <= 1.0:
            raise JournalError(
                f"compact_live_ratio must be in [0, 1], got {compact_live_ratio}"
            )
        self.path = Path(path)
        self.flush_every = flush_every
        self.fsync = fsync
        self.compact_min_records = compact_min_records
        self.compact_live_ratio = compact_live_ratio

        self.acks_recorded = 0
        self.compactions = 0
        self.torn_bytes_recovered = 0

        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.recovered = self._recover_file()
        #: seq -> (node, tid, payload)
        self._live: dict[int, tuple[int, int, bytes]] = {
            seq: (send.node, send.tid, send.payload)
            for seq, send in self.recovered.pending.items()
        }
        self._hwm = self.recovered.next_seq
        self._identity = self.recovered.identity
        self._records_total = self.recovered.records
        self._buffer: list[bytes] = []
        self._unflushed = 0
        # Unbuffered: ``_buffer`` is the only user-space copy, so
        # flush() is one write and crash() has nothing else to discard.
        self._file: FileIO | None = open(self.path, "ab", buffering=0)

    def _recover_file(self) -> ReplayState:
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return ReplayState()
        result = decode_journal(data)  # raises JournalCorruption on damage
        if result.truncated:
            # Cut the torn tail off on disk so new appends are
            # record-aligned; losing a half-written record is the
            # normal crash artefact, not data loss (it was never
            # acknowledged as durable).
            self.torn_bytes_recovered = result.torn_bytes
            with open(self.path, "r+b") as fh:
                fh.truncate(result.consumed)
        return replay_records(result.records)

    # -- identity -----------------------------------------------------------
    def ensure_identity(self, node: int, tid: int) -> None:
        """Stamp (or verify) the owning endpoint's identity.

        The receiver's duplicate suppression is keyed by the sender's
        ``(node, tid)``; replaying this journal from any other identity
        would re-deliver every unacked message as *new* traffic.  A
        mismatch is therefore a refusal, not a warning.
        """
        if self._identity is None:
            self._identity = (node, tid)
            self._append([encode_header(REC_META, self._hwm, node, tid, b"")])
        elif self._identity != (node, tid):
            jnode, jtid = self._identity
            raise JournalError(
                f"journal {self.path.name} belongs to endpoint TiD {jtid} on "
                f"node {jnode}; reinstall the endpoint at its recorded "
                f"identity (got TiD {tid} on node {node})"
            )

    @property
    def identity(self) -> tuple[int, int] | None:
        return self._identity

    # -- appends ------------------------------------------------------------
    def append_send(
        self, seq: int, node: int, tid: int, payload: bytes,
        crc: int | None = None,
    ) -> None:
        """One write-ahead record: :meth:`append_sends` of one."""
        self.append_sends(((seq, node, tid, payload, crc),))

    def append_sends(self, sends: Sequence[tuple]) -> None:
        """Write-ahead records, one per ``(seq, node, tid, payload, crc,
        ...)`` (``crc``: ``seeded_crc(seq, payload)`` or ``None``; later
        fields ignored), as one ``flush_every`` step.  They are live
        even if the flush fails; an empty batch retries that flush."""
        parts: list[bytes] = []
        live, hwm = self._live, self._hwm
        for seq, node, tid, payload, crc, *_ in sends:
            parts += (
                encode_header(REC_SEND, seq, node, tid, payload, crc), payload
            )
            live[seq] = (node, tid, payload)
            if seq >= hwm:
                hwm = seq + 1
        self._hwm = hwm
        self._append(parts, len(sends))

    def append_ack(self, seq: int, *more: int) -> None:
        """Retire ``seq`` and every seq in ``more`` — acknowledged or
        permanently failed; either way none may resurrect on replay.
        However many seqs, it is one record: one step of the
        ``flush_every`` count, one write, one compaction check."""
        payload = ack_payload(more) if more else b""
        self._append([encode_header(REC_ACK, seq, 0, 0, payload), payload])
        self.acks_recorded += 1 + len(more)
        live = self._live
        retired = live.pop(seq, None) is not None
        for other in more:
            retired |= live.pop(other, None) is not None
        if retired:
            self._maybe_compact()

    def _append(self, parts: list[bytes], records: int = 1) -> None:
        if self._file is None:
            raise JournalError(f"journal {self.path.name} is closed")
        self._buffer += parts
        self._records_total += records
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Push buffered records to the file (group commit point)."""
        if self._file is None or not self._buffer:
            return
        fd = self._file.fileno()
        buffer = self._buffer
        written = 0
        try:
            for start in range(0, len(buffer), _IOV_MAX):
                parts = buffer[start:start + _IOV_MAX]
                chunk = os.writev(fd, parts)
                written += chunk
                if chunk != sum(map(len, parts)):
                    raise JournalError(f"short write to journal {self.path.name}")
        except (OSError, JournalError):
            # Take this flush's bytes back off the file, earlier chunks
            # included: it stays record-aligned, and the buffer, kept
            # whole, is retried by the next flush.
            os.ftruncate(fd, os.fstat(fd).st_size - written)
            raise
        buffer.clear()
        self._unflushed = 0
        if self.fsync:
            os.fsync(fd)

    # -- compaction ---------------------------------------------------------
    def _maybe_compact(self) -> None:
        if self._records_total < self.compact_min_records:
            return
        if len(self._live) <= self.compact_live_ratio * self._records_total:
            self.compact()

    def compact(self) -> None:
        """Rewrite the segment as ``META + live SENDs``, atomically.

        ``os.replace`` makes the swap a single metadata operation: a
        crash mid-compaction leaves either the old segment (compaction
        simply never happened) or the complete new one.
        """
        if self._file is None:
            raise JournalError(f"journal {self.path.name} is closed")
        self.flush()
        node, tid = self._identity if self._identity is not None else (0, 0)
        tmp = self.path.with_name(self.path.name + ".compact")
        with open(tmp, "wb") as fh:
            fh.write(encode_header(REC_META, self._hwm, node, tid, b""))
            for seq, (node, tid, payload) in sorted(self._live.items()):
                fh.write(encode_header(REC_SEND, seq, node, tid, payload))
                fh.write(payload)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        self._file.close()
        os.replace(tmp, self.path)
        self._file = open(self.path, "ab", buffering=0)
        self._records_total = 1 + len(self._live)
        self.compactions += 1

    # -- lifecycle ----------------------------------------------------------
    @property
    def depth(self) -> int:
        """Live (unacknowledged) records — what a restart would replay."""
        return len(self._live)

    def pending(self) -> dict[int, PendingSend]:
        """The live set, keyed by seq (a copy; callers may mutate)."""
        return {
            seq: PendingSend(seq, *send) for seq, send in self._live.items()
        }

    def close(self) -> None:
        """Flush and close (clean shutdown)."""
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None

    def crash(self) -> None:
        """Simulate process death: buffered-but-unflushed records are
        *discarded*, exactly as the OS discards a dead process's user
        buffers.  Tests use this to exercise the batched-flush
        durability window honestly."""
        if self._file is not None:
            self._buffer.clear()
            self._unflushed = 0
            self._file.close()
            self._file = None


#: snapshot framing: magic u32, payload length u32, payload CRC32 u32
_SNAP_MAGIC = 0x534E4150  # "SNAP"
_SNAP_HEADER = struct.Struct("<III")


class SnapshotStore:
    """Atomic, CRC-framed JSON snapshot cell (one document).

    ``save`` never updates in place: it writes a sibling temp file and
    ``os.replace``s it over the target, so the store always holds
    either the previous snapshot or the new one — never a torn mix.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.saves = 0

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, state: dict[str, Any]) -> None:
        payload = json.dumps(state, sort_keys=True).encode("utf-8")
        header = _SNAP_HEADER.pack(
            _SNAP_MAGIC, len(payload), zlib.crc32(payload)
        )
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(header + payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self.saves += 1

    def load(self) -> dict[str, Any] | None:
        """The last saved snapshot, or ``None`` if none exists.

        Raises :class:`JournalCorruption` when the file is present but
        damaged — restoring from a half-trusted snapshot could
        silently drop in-flight events, which is exactly the failure
        this layer exists to rule out.
        """
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return None
        if len(data) < _SNAP_HEADER.size:
            raise JournalCorruption(0, "snapshot shorter than its header")
        magic, length, crc = _SNAP_HEADER.unpack_from(data, 0)
        if magic != _SNAP_MAGIC:
            raise JournalCorruption(0, f"bad snapshot magic 0x{magic:08x}")
        payload = data[_SNAP_HEADER.size:]
        if len(payload) != length:
            raise JournalCorruption(
                _SNAP_HEADER.size,
                f"snapshot payload is {len(payload)} bytes, header "
                f"declares {length}",
            )
        if zlib.crc32(payload) != crc:
            raise JournalCorruption(_SNAP_HEADER.size, "snapshot CRC mismatch")
        loaded = json.loads(payload.decode("utf-8"))
        if not isinstance(loaded, dict):
            raise JournalCorruption(
                _SNAP_HEADER.size, "snapshot is not a JSON object"
            )
        return loaded

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)


#: The bootstrap ``durability`` section (:func:`install_durability`).
#: ``dir`` has no usable default: the installer refuses the section
#: without it.
DURABILITY_SCHEMA = ParamSchema([
    ParamSpec("dir", str, default="",
              description="journal and snapshot directory (required)"),
    ParamSpec("fsync", bool, default=False,
              description="fsync the journal file on every flush"),
])


def install_durability(
    cluster: "Cluster", options: dict[str, Any], nodes: list[int]
) -> None:
    """The bootstrap ``durability`` section: every ``reliable_endpoint``
    device on ``nodes`` gets ``<dir>/<name>.journal`` attached, every
    ``daq_eventmanager`` device ``<dir>/<name>.snapshot``.

    The endpoint is already installed, so recovery runs right here: a
    pre-existing journal replays its unacked sends.  EVM restore stays
    explicit (call ``evm.recover()`` on the booted cluster).  If any
    store cannot be opened, the ones opened before it are closed.
    """
    directory = options["dir"]
    if not directory:
        raise JournalError("needs a 'dir' path")
    os.makedirs(directory, exist_ok=True)
    opened: list[SegmentStore] = []
    try:
        for name, (node, _tid, device) in sorted(cluster.devices.items()):
            if node not in nodes:
                continue
            if device.device_class == "reliable_endpoint":
                store = SegmentStore(
                    os.path.join(directory, f"{name}.journal"),
                    fsync=options["fsync"],
                )
                opened.append(store)
                cluster.journals[name] = store
                device.attach_journal(store)  # type: ignore[attr-defined]
            elif device.device_class == "daq_eventmanager":
                snaps = SnapshotStore(
                    os.path.join(directory, f"{name}.snapshot")
                )
                device.snapshot_store = snaps  # type: ignore[attr-defined]
                cluster.snapshots[name] = snaps
    except Exception:
        for store in opened:
            store.close()
        raise
