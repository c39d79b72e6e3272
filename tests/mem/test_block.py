"""Pool block loan semantics: loaned to one holder, or free."""

from __future__ import annotations

import pytest

from repro.mem.block import BlockStateError
from repro.mem.pool import TableAllocator


@pytest.fixture
def allocator():
    return TableAllocator(slab_blocks=4)


def test_fresh_block_has_one_reference(allocator):
    block = allocator.alloc(100)
    assert block.loaned is True
    block.release()


def test_release_recycles_at_zero(allocator):
    block = allocator.alloc(100)
    assert block.release() is None
    assert not block.loaned  # post-release state probe  # repro: noqa OWN001
    assert allocator.in_flight == 0


def test_double_free_raises(allocator):
    block = allocator.alloc(100)
    block.release()
    with pytest.raises(BlockStateError, match="double free"):
        block.release()


def test_capacity_covers_request(allocator):
    block = allocator.alloc(100)
    assert block.capacity >= 100
    assert len(block.memory) == block.capacity
    block.release()


def test_memory_is_writable(allocator):
    block = allocator.alloc(64)
    block.memory[0] = 0xAB
    assert block.memory[0] == 0xAB
    block.release()


def test_recycled_block_identity_reused(allocator):
    block = allocator.alloc(100)
    index = block.index
    block.release()
    again = allocator.alloc(100)
    assert again.index == index  # LIFO free list reuses the hot block
    again.release()
