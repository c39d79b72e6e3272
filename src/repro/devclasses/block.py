"""The Block Storage device class (I2O BSA).

A random-access block device over an in-memory medium, speaking the
three-interface protocol: utility + executive messages from
:class:`~repro.core.device.Listener`, plus the class-specific set
below.  Requests and replies are ordinary private frames, so a block
device can live on any node and be driven through any peer transport —
storage access with the same location transparency as everything else.

Class-specific messages (XFunctionCode):

======================  ======  =====================================
``XF_BSA_READ``         0x0201  payload: lba u64, count u32
``XF_BSA_WRITE``        0x0202  payload: lba u64, count u32, data
``XF_BSA_STATUS``       0x0203  payload: none
``XF_BSA_MEDIA_LOCK``   0x0204  payload: none (toggle via flags)
======================  ======  =====================================

Replies carry ``status u8`` followed by data (reads) or the status
block (capacity, block size, locks, counters).
"""

from __future__ import annotations

import struct

from repro.config.schema import ParamSchema, ParamSpec, SchemaListenerMixin
from repro.core.device import Listener
from repro.core.request import Requester
from repro.dataflow.registry import message_type
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.tid import Tid

XF_BSA_READ = 0x0201
XF_BSA_WRITE = 0x0202
XF_BSA_STATUS = 0x0203
XF_BSA_MEDIA_LOCK = 0x0204

MT_BSA_READ = message_type("bsa.read", XF_BSA_READ, mode="one")
MT_BSA_WRITE = message_type("bsa.write", XF_BSA_WRITE, mode="one")
MT_BSA_STATUS = message_type("bsa.status", XF_BSA_STATUS, mode="one")
MT_BSA_MEDIA_LOCK = message_type("bsa.media-lock", XF_BSA_MEDIA_LOCK,
                                 mode="one")

_RW_HEADER = struct.Struct("<QI")
_STATUS = struct.Struct("<QIIQQB")

STATUS_OK = 0
STATUS_RANGE = 1
STATUS_LOCKED = 2
STATUS_BAD_REQUEST = 3


class BlockDeviceError(I2OError):
    """Client-side error raised when a reply reports failure."""


class BlockStorageDevice(SchemaListenerMixin, Listener):
    """An I2O BSA device over an in-memory medium."""

    device_class = "i2o_block_storage"
    consumes = (MT_BSA_READ, MT_BSA_WRITE, MT_BSA_STATUS, MT_BSA_MEDIA_LOCK)

    schema = ParamSchema([
        ParamSpec("block_size", int, default=512, minimum=64, maximum=65536,
                  description="bytes per logical block", read_only=True),
        ParamSpec("capacity_blocks", int, default=2048, minimum=1,
                  description="number of logical blocks", read_only=True),
    ])

    def __init__(
        self,
        name: str = "bsa0",
        *,
        block_size: int = 512,
        capacity_blocks: int = 2048,
    ) -> None:
        super().__init__(name)
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self.parameters["block_size"] = str(block_size)
        self.parameters["capacity_blocks"] = str(capacity_blocks)
        self._medium = bytearray(block_size * capacity_blocks)
        self.media_locked = False
        self.reads = 0
        self.writes = 0
        self.errors = 0

    def on_plugin(self) -> None:
        self.bind(XF_BSA_READ, self._on_read)
        self.bind(XF_BSA_WRITE, self._on_write)
        self.bind(XF_BSA_STATUS, self._on_status)
        self.bind(XF_BSA_MEDIA_LOCK, self._on_media_lock)

    def on_reset(self) -> None:
        self.media_locked = False

    def export_counters(self) -> dict[str, object]:
        return {"reads": self.reads, "writes": self.writes,
                "errors": self.errors}

    # -- geometry helpers -----------------------------------------------------
    def _check_range(self, lba: int, count: int) -> bool:
        return 0 <= lba and count >= 1 and lba + count <= self.capacity_blocks

    def _span(self, lba: int, count: int) -> slice:
        return slice(lba * self.block_size, (lba + count) * self.block_size)

    # -- class-specific handlers ----------------------------------------------
    def _on_read(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        if frame.payload_size != _RW_HEADER.size:
            self._fail(frame, STATUS_BAD_REQUEST)
            return
        lba, count = _RW_HEADER.unpack_from(frame.payload, 0)
        if not self._check_range(lba, count):
            self._fail(frame, STATUS_RANGE)
            return
        self.reads += 1
        data = self._medium[self._span(lba, count)]
        self.reply(frame, bytes([STATUS_OK]) + bytes(data))

    def _on_write(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        if frame.payload_size < _RW_HEADER.size:
            self._fail(frame, STATUS_BAD_REQUEST)
            return
        lba, count = _RW_HEADER.unpack_from(frame.payload, 0)
        data = frame.payload[_RW_HEADER.size:]
        if not self._check_range(lba, count):
            self._fail(frame, STATUS_RANGE)
            return
        if len(data) != count * self.block_size:
            self._fail(frame, STATUS_BAD_REQUEST)
            return
        if self.media_locked:
            self._fail(frame, STATUS_LOCKED)
            return
        self.writes += 1
        self._medium[self._span(lba, count)] = data
        self.reply(frame, bytes([STATUS_OK]))

    def _on_status(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        payload = bytes([STATUS_OK]) + _STATUS.pack(
            self.capacity_blocks,
            self.block_size,
            1 if self.media_locked else 0,
            self.reads,
            self.writes,
            0,
        )
        self.reply(frame, payload)

    def _on_media_lock(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self.media_locked = not self.media_locked
        self.reply(frame, bytes([STATUS_OK, 1 if self.media_locked else 0]))

    def _fail(self, frame: Frame, status: int) -> None:
        self.errors += 1
        self.reply(frame, bytes([status]), fail=True)


class BlockClient(Requester):
    """Synchronous client: read/write/status against a BSA TiD, each a
    :meth:`~repro.core.request.Requester.ask` (DESIGN §5,
    "Request/reply correlation")."""

    device_class = "i2o_block_client"
    emits = (MT_BSA_READ, MT_BSA_WRITE, MT_BSA_STATUS, MT_BSA_MEDIA_LOCK)
    error_type = BlockDeviceError

    def on_plugin(self) -> None:
        for xfunc in (XF_BSA_READ, XF_BSA_WRITE, XF_BSA_STATUS,
                      XF_BSA_MEDIA_LOCK):
            self.bind(xfunc, self.handle_reply)

    def _call(self, target: Tid, xfunc: int, payload: bytes) -> bytes:
        failed, data = self.ask(target, payload, xfunction=xfunc)
        if failed:
            status = data[0] if data else 255
            raise BlockDeviceError(
                f"block operation 0x{xfunc:04X} failed, status {status}"
            )
        return data

    # -- public API --------------------------------------------------------
    def read(self, target: Tid, lba: int, count: int = 1) -> bytes:
        data = self._call(target, XF_BSA_READ, _RW_HEADER.pack(lba, count))
        return data[1:]

    def write(self, target: Tid, lba: int, data: bytes) -> None:
        self._call(target, XF_BSA_WRITE,
                   _RW_HEADER.pack(lba, len(data) // self._bs(target, data))
                   + data)

    def _bs(self, target: Tid, data: bytes) -> int:
        # Client must know the block size; fetch once via status.
        if not hasattr(self, "_block_size"):
            self.status(target)
        if len(data) % self._block_size:
            raise BlockDeviceError(
                f"write of {len(data)} B is not a whole number of "
                f"{self._block_size} B blocks"
            )
        return self._block_size

    def status(self, target: Tid) -> dict[str, int]:
        data = self._call(target, XF_BSA_STATUS, b"")
        capacity, block_size, locked, reads, writes, _ = _STATUS.unpack_from(
            data, 1
        )
        self._block_size = block_size
        return {
            "capacity_blocks": capacity,
            "block_size": block_size,
            "media_locked": locked,
            "reads": reads,
            "writes": writes,
        }

    def toggle_media_lock(self, target: Tid) -> bool:
        data = self._call(target, XF_BSA_MEDIA_LOCK, b"")
        return bool(data[1])
