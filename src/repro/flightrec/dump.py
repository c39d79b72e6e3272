"""Decoding flight-recorder dumps.

The reader side of :mod:`repro.flightrec.recorder`: load a dump file,
verify its integrity end to end (magic, version, record size, CRC32
over the record bytes) and decode the records.  A dump that fails any
check raises :class:`~repro.flightrec.records.FlightRecError` — the
spill discipline (tmp + fsync + replace) means a torn file on disk is
a bug, not a condition to limp through.
"""

from __future__ import annotations

import os
import zlib
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.flightrec.records import (
    RECORD_SIZE,
    FlightRecError,
    FlightRecord,
    decode_records,
)
from repro.flightrec.recorder import (
    DUMP_HEADER,
    DUMP_HEADER_SIZE,
    DUMP_MAGIC,
    DUMP_VERSION,
)


@dataclass(frozen=True)
class FlightDump:
    """One decoded dump: header fields plus the records, oldest first."""

    path: Path
    node: int
    capacity: int
    total: int
    reason: str
    records: tuple[FlightRecord, ...]

    @property
    def dropped(self) -> int:
        """Records the ring overwrote before the spill."""
        return self.total - len(self.records)

    def of_kind(self, *kinds: int) -> list[FlightRecord]:
        wanted = set(kinds)
        return [r for r in self.records if r.kind in wanted]


def load_dump(path: str | os.PathLike[str]) -> FlightDump:
    """Read, verify and decode one ``.flightrec`` dump."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < DUMP_HEADER_SIZE:
        raise FlightRecError(
            f"{path}: {len(data)} bytes is too short for a dump header"
        )
    (magic, version, node, record_size, _reserved, capacity, total,
     crc, reason_raw) = DUMP_HEADER.unpack_from(data, 0)
    if magic != DUMP_MAGIC:
        raise FlightRecError(f"{path}: bad magic {magic:#010x}")
    if version != DUMP_VERSION:
        raise FlightRecError(
            f"{path}: unsupported dump version {version}"
        )
    if record_size != RECORD_SIZE:
        raise FlightRecError(
            f"{path}: record size {record_size} != expected {RECORD_SIZE}"
        )
    body = data[DUMP_HEADER_SIZE:]
    if len(body) % RECORD_SIZE:
        raise FlightRecError(
            f"{path}: torn dump — {len(body)} body bytes is not a whole "
            f"number of {RECORD_SIZE}-byte records"
        )
    if zlib.crc32(body) != crc:
        raise FlightRecError(f"{path}: CRC mismatch — dump is corrupt")
    stored = len(body) // RECORD_SIZE
    if stored != min(total, capacity):
        raise FlightRecError(
            f"{path}: header claims {min(total, capacity)} stored "
            f"record(s), body holds {stored}"
        )
    return FlightDump(
        path=path,
        node=node,
        capacity=capacity,
        total=total,
        reason=reason_raw.rstrip(b"\0").decode("ascii", "replace"),
        records=decode_records(body),
    )


def load_dumps(paths: Iterable[str | os.PathLike[str]]) -> list[FlightDump]:
    """Load every dump named; a directory stands for the
    ``*.flightrec`` files in it, in name order."""
    files: list[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.glob("*.flightrec")) if path.is_dir() else [path])
    return [load_dump(file) for file in files]


def describe_dump(dump: FlightDump) -> str:
    """A human-readable decode of one dump (the ``decode`` CLI body)."""
    lines = [
        f"=== {dump.path.name}: node {dump.node}, reason "
        f"{dump.reason!r}, {len(dump.records)} record(s) "
        f"(capacity {dump.capacity}, {dump.dropped} dropped) ===",
    ]
    for record in dump.records:
        lines.append(
            f"{record.seq:>8}  {record.t_ns:>16}  {record.describe()}"
        )
    return "\n".join(lines)
