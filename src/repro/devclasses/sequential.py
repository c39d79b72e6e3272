"""The Sequential (tape) Storage device class.

Record-oriented sequential storage: write appends at the current
position (truncating anything beyond it, as tape does), read returns
the record under the head and advances, filemarks separate files, and
``space`` moves the head by a signed record count.

Class-specific messages:

==========================  ======
``XF_SEQ_WRITE``            0x0211
``XF_SEQ_READ``             0x0212
``XF_SEQ_REWIND``           0x0213
``XF_SEQ_SPACE``            0x0214  (payload: i32 record delta)
``XF_SEQ_WRITE_FILEMARK``   0x0215
==========================  ======
"""

from __future__ import annotations

import struct

from repro.core.device import Listener
from repro.core.request import Requester
from repro.dataflow.registry import message_type
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.tid import Tid

XF_SEQ_WRITE = 0x0211
XF_SEQ_READ = 0x0212
XF_SEQ_REWIND = 0x0213
XF_SEQ_SPACE = 0x0214
XF_SEQ_WRITE_FILEMARK = 0x0215

MT_SEQ_WRITE = message_type("seq.write", XF_SEQ_WRITE, mode="one")
MT_SEQ_READ = message_type("seq.read", XF_SEQ_READ, mode="one")
MT_SEQ_REWIND = message_type("seq.rewind", XF_SEQ_REWIND, mode="one")
MT_SEQ_SPACE = message_type("seq.space", XF_SEQ_SPACE, mode="one")
MT_SEQ_WRITE_FILEMARK = message_type(
    "seq.write-filemark", XF_SEQ_WRITE_FILEMARK, mode="one"
)

_I32 = struct.Struct("<i")

STATUS_OK = 0
STATUS_END_OF_TAPE = 1
STATUS_FILEMARK = 2
STATUS_BAD_REQUEST = 3


class TapeMark:
    """Sentinel record: a filemark on the medium."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<filemark>"


_FILEMARK = TapeMark()


class SequentialStorageDevice(Listener):
    """An I2O sequential-storage device over an in-memory medium."""

    device_class = "i2o_sequential_storage"
    consumes = (MT_SEQ_WRITE, MT_SEQ_READ, MT_SEQ_REWIND, MT_SEQ_SPACE,
                MT_SEQ_WRITE_FILEMARK)

    def __init__(self, name: str = "tape0", *, max_records: int = 100_000) -> None:
        super().__init__(name)
        self.max_records = max_records
        self._records: list[bytes | TapeMark] = []
        self._position = 0
        self.writes = 0
        self.reads = 0

    def on_plugin(self) -> None:
        self.bind(XF_SEQ_WRITE, self._on_write)
        self.bind(XF_SEQ_READ, self._on_read)
        self.bind(XF_SEQ_REWIND, self._on_rewind)
        self.bind(XF_SEQ_SPACE, self._on_space)
        self.bind(XF_SEQ_WRITE_FILEMARK, self._on_filemark)

    def on_reset(self) -> None:
        self._position = 0

    def export_counters(self) -> dict[str, object]:
        return {
            "records": len(self._records),
            "position": self._position,
            "reads": self.reads,
            "writes": self.writes,
        }

    # -- handlers ---------------------------------------------------------
    def _append(self, record: bytes | TapeMark, frame: Frame) -> None:
        if len(self._records) >= self.max_records:
            self.reply(frame, bytes([STATUS_END_OF_TAPE]), fail=True)
            return
        # Tape semantics: writing truncates everything past the head.
        del self._records[self._position:]
        self._records.append(record)
        self._position = len(self._records)
        self.writes += 1
        self.reply(frame, bytes([STATUS_OK]))

    def _on_write(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self._append(bytes(frame.payload), frame)

    def _on_filemark(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self._append(_FILEMARK, frame)

    def _on_read(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self.reads += 1
        if self._position >= len(self._records):
            self.reply(frame, bytes([STATUS_END_OF_TAPE]), fail=True)
            return
        record = self._records[self._position]
        self._position += 1
        if isinstance(record, TapeMark):
            self.reply(frame, bytes([STATUS_FILEMARK]))
        else:
            self.reply(frame, bytes([STATUS_OK]) + record)

    def _on_rewind(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self._position = 0
        self.reply(frame, bytes([STATUS_OK]))

    def _on_space(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        if frame.payload_size != _I32.size:
            self.reply(frame, bytes([STATUS_BAD_REQUEST]), fail=True)
            return
        (delta,) = _I32.unpack_from(frame.payload, 0)
        target = self._position + delta
        if not 0 <= target <= len(self._records):
            self.reply(frame, bytes([STATUS_END_OF_TAPE]), fail=True)
            return
        self._position = target
        self.reply(frame, bytes([STATUS_OK]))


class SequentialClient(Requester):
    """Synchronous tape client (DESIGN §5, "Request/reply
    correlation")."""

    device_class = "i2o_sequential_client"
    emits = (MT_SEQ_WRITE, MT_SEQ_READ, MT_SEQ_REWIND, MT_SEQ_SPACE,
             MT_SEQ_WRITE_FILEMARK)

    def on_plugin(self) -> None:
        for xfunc in (XF_SEQ_WRITE, XF_SEQ_READ, XF_SEQ_REWIND,
                      XF_SEQ_SPACE, XF_SEQ_WRITE_FILEMARK):
            self.bind(xfunc, self.handle_reply)

    def _call(self, target: Tid, xfunc: int, payload: bytes = b"") -> bytes:
        failed, data = self.ask(target, payload, xfunction=xfunc)
        if failed:
            status = data[0] if data else 255
            raise I2OError(
                f"tape operation 0x{xfunc:04X} failed, status {status}"
            )
        return data

    def write(self, target: Tid, record: bytes) -> None:
        self._call(target, XF_SEQ_WRITE, record)

    def write_filemark(self, target: Tid) -> None:
        self._call(target, XF_SEQ_WRITE_FILEMARK)

    def read(self, target: Tid) -> bytes | TapeMark:
        data = self._call(target, XF_SEQ_READ)
        if data[0] == STATUS_FILEMARK:
            return _FILEMARK
        return data[1:]

    def rewind(self, target: Tid) -> None:
        self._call(target, XF_SEQ_REWIND)

    def space(self, target: Tid, delta: int) -> None:
        self._call(target, XF_SEQ_SPACE, _I32.pack(delta))

    def read_file(self, target: Tid) -> list[bytes]:
        """Read records up to the next filemark (or end of data)."""
        records: list[bytes] = []
        while True:
            try:
                record = self._call(target, XF_SEQ_READ)
            except I2OError:
                return records  # end of tape
            if record[0] == STATUS_FILEMARK:
                return records
            records.append(record[1:])
