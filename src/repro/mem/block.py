"""Pool blocks and their loan state.

A block is a fixed-size span of pool memory loaned to exactly one
in-flight message at a time: it is either loaned to one holder or
free.  That is the paper's "automatic garbage collection ... blocks
are recycled if they are not referenced anymore" with one holder per
block: a hand-off (a staged item, a send still in flight, a retained
frame) moves the one loan, and N readers of one payload get N copies.
The holder's ``release()`` returns the block to its free list.
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
        "frame", "_owner", "loaned",
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
        #: True while the block is loaned to its one holder; written
        #: only under the allocator's lock
        self.loaned = False

    def adopt(self, frame_len: int) -> Frame:
        """The block's own frame, live again for the executive it was
        handed to in-process: trusted, as this process wrote it through
        checked writes (a sanitized block re-validates it)."""
        frame = self.frame
        frame.block, frame.trace_mark = self, None
        return frame

    def release(self) -> None:
        """End the loan and recycle the block (frameFree).

        Guarded by the owning allocator's lock: a block may be released
        from any thread of any executive.
        """
        lock = self._owner.lock
        lock.acquire()  # explicitly, as ``Allocator.alloc`` holds it
        try:
            if not self.loaned:
                raise BlockStateError(
                    f"release of free block {self.index} (double free?)"
                )
            self.loaned = False
            self._owner._recycle(self)
        finally:
            lock.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PoolBlock #{self.index} cap={self.capacity} "
            f"loaned={self.loaned}>"
        )
