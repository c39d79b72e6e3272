"""The runtime pool sanitizer: poison, canaries, leak reports."""

from __future__ import annotations

import pytest

from repro.analysis.sanitize import (
    POISON,
    DoubleFreeError,
    LeakError,
    SanitizingOriginalAllocator,
    SanitizingTableAllocator,
    UseAfterFreeError,
    assert_clean,
    audit_pool,
    leak_report,
    sanitizing_enabled,
)
from repro.mem.block import BlockStateError
from repro.mem.pool import BufferPool, TableAllocator


@pytest.fixture
def pool():
    return BufferPool(SanitizingTableAllocator(slab_blocks=4))


class TestEnablement:
    def test_env_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitizing_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitizing_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "off")
        assert not sanitizing_enabled()

    def test_default_pool_is_sanitized_under_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert isinstance(BufferPool().allocator, SanitizingTableAllocator)
        monkeypatch.delenv("REPRO_SANITIZE")
        assert type(BufferPool().allocator) is TableAllocator

    def test_helpers_are_noops_on_plain_pools(self):
        plain = BufferPool(TableAllocator())
        block = plain.alloc(16)
        assert audit_pool(plain) == [] and leak_report(plain) == []
        assert_clean(plain)  # never raises without instrumentation
        block.release()


class TestDoubleFree:
    def test_raises_with_first_free_site(self, pool):
        block = pool.alloc(64)
        block.release()
        with pytest.raises(DoubleFreeError, match="first freed") as exc:
            block.release()
        # the report names this test as the releasing code
        assert "test_sanitize" in str(exc.value)

    def test_is_a_block_state_error(self, pool):
        # Existing guards on the unsanitized error must keep working.
        block = pool.alloc(64)
        block.release()
        with pytest.raises(BlockStateError, match="double free"):
            block.release()


class TestUseAfterFree:
    def test_freed_memory_is_poisoned(self, pool):
        block = pool.alloc(64)
        view = block.memory
        block.release()
        assert all(byte == POISON for byte in view)

    def test_write_after_free_caught_at_reuse(self, pool):
        block = pool.alloc(64)
        stale = block.memory
        block.release()
        stale[0] = 0x42  # the UAF write
        with pytest.raises(UseAfterFreeError, match="canary"):
            pool.alloc(64)

    def test_audit_scans_free_lists(self, pool):
        block = pool.alloc(64)
        stale = block.memory
        block.release()
        assert audit_pool(pool) == []
        stale[7] = 0x00
        reports = audit_pool(pool)
        assert len(reports) == 1 and "use-after-free" in reports[0]

    def test_clean_reuse_is_silent(self, pool):
        for _ in range(3):
            block = pool.alloc(64)
            block.memory[:8] = b"payload!"
            block.release()
        assert audit_pool(pool) == []
        assert_clean(pool)


class TestLeakReports:
    def test_leak_carries_allocation_site(self, pool):
        block = pool.alloc(128)
        reports = leak_report(pool)
        assert len(reports) == 1
        assert "still loaned" in reports[0]
        assert "test_sanitize" in reports[0]  # the allocating test
        with pytest.raises(LeakError, match="still loaned"):
            assert_clean(pool)
        block.release()
        assert leak_report(pool) == []
        assert_clean(pool)

    def test_executive_stop_warns_on_leaks(self):
        from repro.core.executive import Executive
        from repro.i2o.tid import EXECUTIVE_TID

        exe = Executive(pool=BufferPool(SanitizingTableAllocator()))
        leaked = exe.frame_alloc(32, target=EXECUTIVE_TID)
        exe.start()
        with pytest.warns(ResourceWarning, match="leaked pool block"):
            exe.stop()
        exe.frame_free(leaked)


class TestOriginalAllocatorVariant:
    def test_both_schemes_are_instrumented(self):
        pool = BufferPool(
            SanitizingOriginalAllocator(block_size=256, block_count=4)
        )
        block = pool.alloc(100)
        block.release()
        with pytest.raises(DoubleFreeError):
            block.release()

    def test_conservation_still_holds(self):
        pool = BufferPool(
            SanitizingOriginalAllocator(block_size=256, block_count=4)
        )
        blocks = [pool.alloc(10) for _ in range(4)]
        for block in blocks:
            block.release()
        pool.check_conservation()
        assert pool.in_flight == 0
        assert_clean(pool)
