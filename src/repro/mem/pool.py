"""Buffer pool and the two allocation schemes from the paper.

The pool hands out :class:`~repro.mem.block.PoolBlock` objects whose
memoryviews back :class:`~repro.i2o.frame.Frame` instances — building a
message writes straight into pool memory and transmitting it reads
straight out of it (zero-copy buffer loaning).

Conservation is a hard invariant: ``allocated == freed + in_flight`` at
all times, no block is loaned twice concurrently, and exhaustion raises
:class:`PoolExhausted` rather than corrupting state.  These are
property-tested in ``tests/mem``.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from repro.i2o.errors import I2OError
from repro.i2o.frame import HEADER_SIZE, MAX_FRAME_SIZE
from repro.mem.block import BlockStateError, PoolBlock


class PoolError(I2OError):
    """Structural misuse of the pool."""


class PoolExhausted(PoolError):
    """No block can satisfy the request within the pool's budget."""


@dataclass
class PoolStats:
    """Cumulative counters; cheap enough to keep always-on."""

    allocs: int = 0
    frees: int = 0
    failed_allocs: int = 0
    slabs_created: int = 0
    high_watermark: int = 0  # max blocks simultaneously in flight

    @property
    def in_flight(self) -> int:
        return self.allocs - self.frees


class Allocator(ABC):
    """Strategy object: how requested sizes map to free blocks.

    The allocator owns the lock guarding both its free lists and the
    loan state of its blocks: a frame may be released by a *different*
    executive (and thread) than allocated it — e.g. a loopback peer
    transport hands the block across nodes — so safety must live here,
    not in any per-executive façade.
    """

    def __init__(self) -> None:
        self.stats = PoolStats()
        self._in_flight = 0
        self._frag_bytes = 0
        self.lock = threading.Lock()

    # -- subclass contract -------------------------------------------------
    @abstractmethod
    def _acquire(self, size: int) -> PoolBlock:
        """Return a free block with ``capacity >= size`` or raise
        :class:`PoolExhausted`."""

    def _recycle(self, block: PoolBlock) -> None:
        """Accept a block whose loan just ended: the loan's bookkeeping,
        all a scheme with no free list needs (``OriginalAllocator``)."""
        self._in_flight -= 1
        self.stats.frees += 1
        self._frag_bytes -= block.capacity - block.requested
        if self._in_flight < 0:
            raise PoolError("more frees than allocs — conservation violated")

    def _make_block(
        self, memory: memoryview, *, index: int, size_class: int
    ) -> PoolBlock:
        """Create one of this allocator's blocks.

        The single point where blocks are born: the runtime sanitizer
        (:mod:`repro.analysis.sanitize`) overrides this to substitute
        instrumented blocks without the allocation schemes knowing.
        """
        return PoolBlock(memory, index=index, size_class=size_class, owner=self)

    # -- public API ---------------------------------------------------------
    def alloc(self, size: int) -> PoolBlock:
        if size <= 0:
            raise PoolError(f"allocation size must be positive, got {size}")
        if size > MAX_FRAME_SIZE:
            raise PoolError(
                f"allocation {size} exceeds the 256 KB one-block limit (DESIGN §1)"
            )
        # Held explicitly, not by ``with``: on this hot path the context
        # manager's enter/exit calls cost more than the critical section.
        lock = self.lock
        lock.acquire()
        try:
            try:
                block = self._acquire(size)
            except PoolExhausted:
                self.stats.failed_allocs += 1
                raise
            if block.loaned:
                raise BlockStateError(f"block {block.index} is already loaned")
            block.loaned = True
            block.requested = size
            self._in_flight += 1
            self._frag_bytes += block.capacity - size
            stats = self.stats
            stats.allocs += 1
            if self._in_flight > stats.high_watermark:
                stats.high_watermark = self._in_flight
            return block
        finally:
            lock.release()

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def internal_fragmentation(self) -> int:
        """Block capacity minus requested bytes, summed over the blocks
        currently in flight: the size-class table's standing waste."""
        return self._frag_bytes


class OriginalAllocator(Allocator):
    """The paper's first (measured-slow) scheme.

    All blocks are preallocated at construction.  ``alloc`` walks the
    block array from the start looking for the first free block large
    enough — O(occupied prefix) per allocation, which is exactly why
    the whitebox test saw frameAlloc dominate PT processing time and
    why §5 replaced it with the table-matched scheme.
    """

    def __init__(self, block_size: int = 4096, block_count: int = 256) -> None:
        super().__init__()
        if not HEADER_SIZE <= block_size <= MAX_FRAME_SIZE:
            raise PoolError(f"block_size {block_size} out of range")
        if block_count < 1:
            raise PoolError(f"block_count must be >= 1, got {block_count}")
        self.block_size = block_size
        self.block_count = block_count
        slab = bytearray(block_size * block_count)
        view = memoryview(slab)
        self._slab = slab  # keep alive
        self._blocks = [
            self._make_block(
                view[i * block_size : (i + 1) * block_size],
                index=i,
                size_class=block_size,
            )
            for i in range(block_count)
        ]
        self.stats.slabs_created = 1

    def _acquire(self, size: int) -> PoolBlock:
        if size > self.block_size:
            raise PoolExhausted(
                f"request {size} exceeds fixed block size {self.block_size}"
            )
        # First-fit scan from index zero: deliberately the naive scheme
        # the paper measured.
        for block in self._blocks:
            if not block.loaned:
                return block
        raise PoolExhausted(
            f"all {self.block_count} blocks of {self.block_size} B in use"
        )


# Size classes for the table allocator: small power-of-two classes up
# to the 256 KB block maximum.  64 B floor keeps tiny control messages
# from fragmenting a class per size.
_MIN_CLASS_BITS = 6  # 64 B
_MAX_CLASS_BITS = 18  # 256 KB


def _size_class_bits(size: int) -> int:
    bits = max((size - 1).bit_length(), _MIN_CLASS_BITS)
    if bits > _MAX_CLASS_BITS:
        raise PoolError(f"size {size} above 256 KB maximum")
    return bits


class TableAllocator(Allocator):
    """The paper's optimised scheme (§5).

    *"A new allocation scheme ... allocates memory for the buffer pool
    on demand.  Furthermore it relies on a table based matching from
    requested memory size to pool buffer size, thus the time needed to
    allocate a frame shrinks dramatically for applications that use
    similar buffer sizes throughout their lifetimes."*

    Requested size → power-of-two size class (a table lookup), each
    class keeps a LIFO free list (hot blocks stay cache-warm), and an
    empty class grows by allocating a new slab of ``slab_blocks``
    blocks on demand, up to ``max_bytes``.
    """

    def __init__(self, slab_blocks: int = 32, max_bytes: int = 512 * 1024 * 1024) -> None:
        super().__init__()
        if slab_blocks < 1:
            raise PoolError(f"slab_blocks must be >= 1, got {slab_blocks}")
        self.slab_blocks = slab_blocks
        self.max_bytes = max_bytes
        self.bytes_reserved = 0
        self._slabs: list[bytearray] = []
        #: class size (= the capacity of its blocks) -> LIFO free list
        self._free: dict[int, list[PoolBlock]] = {
            1 << bits: [] for bits in range(_MIN_CLASS_BITS, _MAX_CLASS_BITS + 1)
        }
        #: the size-to-class table: ``(size - 1).bit_length()`` -> the
        #: free list of the smallest class that holds ``size`` bytes
        self._by_bits = [
            self._free[1 << max(bits, _MIN_CLASS_BITS)]
            for bits in range(_MAX_CLASS_BITS + 1)
        ]
        self._block_index = 0

    def _grow(self, bits: int) -> None:
        class_size = 1 << bits
        count = self.slab_blocks
        # Large classes get smaller slabs so one burst of jumbo frames
        # does not reserve gigabytes.
        while count > 1 and class_size * count > 8 * 1024 * 1024:
            count //= 2
        slab_bytes = class_size * count
        if self.bytes_reserved + slab_bytes > self.max_bytes:
            raise PoolExhausted(
                f"pool budget {self.max_bytes} B exhausted "
                f"(reserved {self.bytes_reserved}, need {slab_bytes})"
            )
        slab = bytearray(slab_bytes)
        self._slabs.append(slab)
        self.bytes_reserved += slab_bytes
        self.stats.slabs_created += 1
        view = memoryview(slab)
        free_list = self._free[class_size]
        for i in range(count):
            free_list.append(
                self._make_block(
                    view[i * class_size : (i + 1) * class_size],
                    index=self._block_index,
                    size_class=class_size,
                )
            )
            self._block_index += 1

    def _acquire(self, size: int) -> PoolBlock:
        free_list = self._by_bits[(size - 1).bit_length()]
        if not free_list:
            self._grow(_size_class_bits(size))
        return free_list.pop()

    def _recycle(self, block: PoolBlock) -> None:
        self._free[block.capacity].append(block)
        # The base's bookkeeping inline, not by a call: once per message.
        self._in_flight -= 1
        self.stats.frees += 1
        self._frag_bytes -= block.capacity - block.requested
        if self._in_flight < 0:
            raise PoolError("more frees than allocs — conservation violated")


def _default_allocator() -> Allocator:
    """A :class:`TableAllocator` — or its instrumented variant when the
    runtime pool sanitizer is switched on (``REPRO_SANITIZE=1``)."""
    from repro.analysis.sanitize import sanitizing_enabled

    if sanitizing_enabled():
        from repro.analysis.sanitize import SanitizingTableAllocator

        return SanitizingTableAllocator()
    return TableAllocator()


class BufferPool:
    """The executive's pool: a thin façade over an allocator.

    All locking lives in the allocator and blocks (see
    :class:`Allocator`), so frames may be freed through any pool — or
    via ``block.release()`` directly — regardless of which executive
    allocated them.
    """

    def __init__(self, allocator: Allocator | None = None) -> None:
        self.allocator = allocator if allocator is not None else _default_allocator()
        #: loan a block with at least ``size`` writable bytes: the
        #: allocator's own method, so a loan pays no façade call
        self.alloc: Callable[[int], PoolBlock] = self.allocator.alloc

    def free(self, block: PoolBlock) -> None:
        """End the block's loan (frameFree); it returns to its free list."""
        block.release()

    @property
    def stats(self) -> PoolStats:
        return self.allocator.stats

    @property
    def in_flight(self) -> int:
        return self.allocator.in_flight

    @property
    def internal_fragmentation(self) -> int:
        return self.allocator.internal_fragmentation

    def check_conservation(self) -> None:
        """Assert the pool invariant; used liberally in tests."""
        st = self.stats
        if st.allocs != st.frees + self.allocator.in_flight:
            raise PoolError(
                f"conservation violated: allocs={st.allocs} "
                f"frees={st.frees} in_flight={self.allocator.in_flight}"
            )
