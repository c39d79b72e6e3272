"""Reference-counted pool blocks.

A block is a fixed-size span of pool memory loaned to exactly one
in-flight message at a time.  The reference count implements the
paper's "automatic garbage collection ... blocks are recycled if they
are not referenced anymore": a transport that needs to hold a frame
across an asynchronous send takes an extra reference; the block only
returns to its free list when the last holder releases it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mem.pool import Allocator


class BlockStateError(I2OError):
    """Use of a block that is not currently loaned out."""


class PoolBlock:
    """One fixed-size block of pool memory.

    Blocks are created once by their allocator and recycled forever;
    ``memory`` is a writable memoryview of the block's full capacity.
    User code receives blocks only through
    :meth:`repro.mem.pool.BufferPool.alloc`.

    ``frame`` is the block's one :class:`~repro.i2o.frame.Frame`, over
    all of ``memory`` and recycled with the block: every loan re-heads
    it, so a hop builds no Python object.  ``frame.block`` is the block
    while a loan is live and ``None`` once freed: a frame handle is
    valid only while its block is loaned.
    """

    __slots__ = (
        "memory", "capacity", "index", "size_class", "requested",
        "frame", "_owner", "_refcount",
    )

    def __init__(
        self,
        memory: memoryview,
        *,
        index: int,
        size_class: int,
        owner: "Allocator",
    ) -> None:
        if memory.readonly:
            raise BlockStateError("block memory must be writable")
        self.memory = memory
        self.capacity = len(memory)
        self.index = index
        self.size_class = size_class
        #: bytes the current loan asked for (<= capacity); the gap is
        #: the block's internal fragmentation while in flight
        self.requested = 0
        self.frame = Frame._undecoded(memory, None)
        self._owner = owner
        self._refcount = 0

    def adopt(self, frame_len: int) -> Frame:
        """The block's own frame, live again for the executive it was
        handed to in-process: trusted, as this process wrote it through
        checked writes (a sanitized block re-validates it)."""
        frame = self.frame
        frame.block, frame.trace_mark = self, None
        return frame

    @property
    def refcount(self) -> int:
        return self._refcount

    @property
    def in_use(self) -> bool:
        return self._refcount > 0

    def addref(self) -> "PoolBlock":
        """Take an additional reference; returns self for chaining.

        Guarded by the owning allocator's lock: references may be taken
        and dropped from any thread of any executive.
        """
        with self._owner.lock:
            if self._refcount <= 0:
                raise BlockStateError(f"addref on free block {self.index}")
            self._refcount += 1
            return self

    def release(self) -> bool:
        """Drop one reference; recycles the block (and returns True)
        when the count reaches zero."""
        lock = self._owner.lock
        lock.acquire()  # explicitly, as ``Allocator.alloc`` holds it
        try:
            if self._refcount <= 0:
                raise BlockStateError(
                    f"release of free block {self.index} (double free?)"
                )
            self._refcount -= 1
            if self._refcount == 0:
                self._owner._recycle(self)
                return True
            return False
        finally:
            lock.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PoolBlock #{self.index} cap={self.capacity} "
            f"refs={self._refcount}>"
        )
