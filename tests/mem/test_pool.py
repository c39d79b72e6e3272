"""Pool invariants across both allocator schemes."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.i2o.frame import MAX_FRAME_SIZE
from repro.mem.pool import (
    BufferPool,
    OriginalAllocator,
    PoolError,
    PoolExhausted,
    TableAllocator,
)

ALLOCATORS = [
    lambda: OriginalAllocator(block_size=4096, block_count=32),
    lambda: TableAllocator(slab_blocks=8),
]


@pytest.mark.parametrize("make", ALLOCATORS, ids=["original", "table"])
class TestCommonBehaviour:
    def test_alloc_free_cycle(self, make):
        pool = BufferPool(make())
        block = pool.alloc(1000)
        assert block.capacity >= 1000
        pool.free(block)
        pool.check_conservation()
        assert pool.in_flight == 0

    def test_no_block_loaned_twice(self, make):
        pool = BufferPool(make())
        blocks = [pool.alloc(512) for _ in range(20)]
        assert len({id(b) for b in blocks}) == 20
        assert len({b.index for b in blocks}) == 20
        for b in blocks:
            pool.free(b)

    def test_rejects_nonpositive(self, make):
        pool = BufferPool(make())
        with pytest.raises(PoolError):
            pool.alloc(0)
        with pytest.raises(PoolError):
            pool.alloc(-5)

    def test_rejects_above_256k(self, make):
        pool = BufferPool(make())
        with pytest.raises(PoolError, match="one-block limit"):
            pool.alloc(MAX_FRAME_SIZE + 1)

    def test_stats_track_allocs_and_frees(self, make):
        pool = BufferPool(make())
        blocks = [pool.alloc(100) for _ in range(5)]
        for b in blocks[:3]:
            pool.free(b)
        assert pool.stats.allocs == 5
        assert pool.stats.frees == 3
        assert pool.in_flight == 2
        assert pool.stats.high_watermark == 5
        for b in blocks[3:]:
            pool.free(b)

    def test_writes_to_one_block_do_not_leak_into_another(self, make):
        pool = BufferPool(make())
        a = pool.alloc(64)
        b = pool.alloc(64)
        a.memory[:4] = b"AAAA"
        b.memory[:4] = b"BBBB"
        assert bytes(a.memory[:4]) == b"AAAA"
        pool.free(a)
        pool.free(b)

    def test_concurrent_alloc_free(self, make):
        """The allocator lock must survive a multithreaded hammer."""
        pool = BufferPool(make())
        errors: list[Exception] = []

        def worker() -> None:
            try:
                for _ in range(300):
                    block = pool.alloc(128)
                    block.memory[0] = 1
                    pool.free(block)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        pool.check_conservation()
        assert pool.in_flight == 0

    @given(ops=st.lists(
        st.tuples(st.booleans(), st.integers(1, 4000)), min_size=1, max_size=200
    ))
    @settings(max_examples=50, deadline=None)
    def test_property_conservation(self, make, ops):
        pool = BufferPool(make())
        held = []
        for do_alloc, size in ops:
            if do_alloc:
                try:
                    held.append(pool.alloc(size))
                except PoolExhausted:
                    pass
            elif held:
                pool.free(held.pop())
            pool.check_conservation()
            assert pool.in_flight == len(held)
        for block in held:
            pool.free(block)
        pool.check_conservation()


class TestOriginalAllocator:
    def test_exhaustion_raises_cleanly(self):
        alloc = OriginalAllocator(block_size=256, block_count=3)
        blocks = [alloc.alloc(100) for _ in range(3)]
        with pytest.raises(PoolExhausted):
            alloc.alloc(100)
        assert alloc.stats.failed_allocs == 1
        for b in blocks:
            b.release()
        alloc.alloc(100).release()  # recovered

    def test_request_larger_than_block_size(self):
        alloc = OriginalAllocator(block_size=256, block_count=3)
        with pytest.raises(PoolExhausted):
            alloc.alloc(257)

    def test_first_fit_from_zero(self):
        alloc = OriginalAllocator(block_size=128, block_count=4)
        a = alloc.alloc(10)
        b = alloc.alloc(10)
        slot = a.index
        a.release()
        c = alloc.alloc(10)
        assert c.index == slot  # first free slot is reused
        b.release()
        c.release()

    def test_validation(self):
        with pytest.raises(PoolError):
            OriginalAllocator(block_size=0)
        with pytest.raises(PoolError):
            OriginalAllocator(block_count=0)


class TestTableAllocator:
    def test_grows_on_demand(self):
        alloc = TableAllocator(slab_blocks=2)
        assert alloc.stats.slabs_created == 0
        blocks = [alloc.alloc(100) for _ in range(5)]
        assert alloc.stats.slabs_created == 3  # 2 blocks per slab
        for b in blocks:
            b.release()

    def test_size_class_rounding(self):
        alloc = TableAllocator()
        assert alloc.alloc(1).capacity == 64  # class floor
        assert alloc.alloc(65).capacity == 128
        assert alloc.alloc(128).capacity == 128
        assert alloc.alloc(129).capacity == 256

    def test_classes_do_not_mix(self):
        alloc = TableAllocator(slab_blocks=2)
        small = alloc.alloc(64)
        big = alloc.alloc(8192)
        small.release()
        big.release()
        assert alloc.alloc(8192).capacity == 8192

    def test_budget_exhaustion(self):
        alloc = TableAllocator(slab_blocks=1, max_bytes=128)
        block = alloc.alloc(64)
        with pytest.raises(PoolExhausted, match="budget"):
            alloc.alloc(8192)
        block.release()

    def test_large_class_slabs_are_bounded(self):
        alloc = TableAllocator(slab_blocks=32)
        block = alloc.alloc(256 * 1024)
        # A 256 KB class must not reserve 32 x 256 KB at once.
        assert alloc.bytes_reserved <= 8 * 1024 * 1024
        block.release()

    def test_validation(self):
        with pytest.raises(PoolError):
            TableAllocator(slab_blocks=0)
