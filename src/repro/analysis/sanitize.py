"""Opt-in runtime pool sanitizer: poison, canaries and leak reports.

The static OWN rules (``python -m tools.lint``) catch protocol
violations the AST can see; this module catches the rest at runtime,
in the style of an address sanitizer scaled down to the buffer pool:

* every block records its **allocation and free sites** (short
  captured stacks), so any complaint names the code that did it;
* a freed block's memory is **poisoned** with ``0xDD``; when the block
  is loaned out again the canary is verified, so a write through a
  stale frame view between free and reuse — a use-after-free write —
  is caught at the next allocation (or by an explicit :func:`audit`);
* a block handed over in-process is **re-validated** at adoption, as
  a wire frame is, so the header the receiver trusts is checked;
* a **double free** raises :class:`DoubleFreeError` carrying the site
  of the *first* free alongside the current stack;
* at shutdown, :func:`assert_clean` reports every still-loaned block
  with the traceback of the allocation that leaked it.

Everything here is opt-in: set ``REPRO_SANITIZE=1`` (or run pytest
with ``--sanitize``) and every default-constructed
:class:`~repro.mem.pool.BufferPool` silently swaps its
:class:`~repro.mem.pool.TableAllocator` for the instrumented
:class:`SanitizingTableAllocator`.  Production code paths never import
this module.

The **affinity guard** is the runtime twin of the static RACE rules:
set ``REPRO_AFFINITY=1`` and :func:`install_affinity_guard` records
the thread that drives each executive's loop of control, then raises
:class:`AffinityViolationError` whenever any other non-main thread
assigns an attribute on a plugged-in device — the same cross-thread
device mutation RACE001 flags in the AST, caught live.
"""

from __future__ import annotations

import os
import threading
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro.i2o.frame import Frame
from repro.mem.block import BlockStateError, PoolBlock
from repro.mem.pool import (
    BufferPool,
    OriginalAllocator,
    PoolError,
    TableAllocator,
)

#: byte written over every freed block (0xDD: "dead")
POISON = 0xDD
#: captured frames per recorded site
_STACK_DEPTH = 8
#: recorded events per block (old recycles age out)
_HISTORY_DEPTH = 12

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitizing_enabled() -> bool:
    """Is the pool sanitizer switched on for this process?"""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


class SanitizeError(PoolError):
    """The sanitizer found a pool-protocol violation."""


class DoubleFreeError(SanitizeError, BlockStateError):
    """A block was released while already free.

    Subclasses :class:`BlockStateError` so code (and tests) that guard
    the unsanitized double-free error keep working under the sanitizer.
    """


class UseAfterFreeError(SanitizeError):
    """A freed block's poison canary was overwritten before reuse."""


class LeakError(SanitizeError):
    """Blocks were still loaned out when the pool shut down."""


def _capture_site() -> tuple[str, ...]:
    """A short formatted stack, innermost last, sanitizer frames culled."""
    here = os.path.dirname(__file__)
    frames = [
        f"{frame.filename}:{frame.lineno} in {frame.name}"
        for frame in traceback.extract_stack()
        if os.path.dirname(frame.filename) != here
    ]
    return tuple(frames[-_STACK_DEPTH:])


@dataclass(frozen=True)
class BlockEvent:
    """One recorded pool interaction: who allocated or freed."""

    kind: str  # "alloc" | "free"
    site: tuple[str, ...]

    def render(self, indent: str = "    ") -> str:
        lines = [f"{indent}{self.kind} at:"]
        lines.extend(f"{indent}  {line}" for line in self.site)
        return "\n".join(lines)


class SanitizedBlock(PoolBlock):
    """A pool block that remembers how it has been used."""

    __slots__ = ("events", "poisoned")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: most recent pool interactions, oldest first
        self.events: list[BlockEvent] = []
        #: True between poisoning at free and the canary check at reuse
        self.poisoned = False

    def _record(self, kind: str) -> None:
        self.events.append(BlockEvent(kind, _capture_site()))
        if len(self.events) > _HISTORY_DEPTH:
            del self.events[: len(self.events) - _HISTORY_DEPTH]

    def last_event(self, kind: str) -> BlockEvent | None:
        for event in reversed(self.events):
            if event.kind == kind:
                return event
        return None

    def history(self) -> str:
        if not self.events:
            return "    (no recorded events)"
        return "\n".join(event.render() for event in self.events)

    def adopt(self, frame_len: int) -> Frame:
        """Adopt as a wire frame is: validated, within ``frame_len``."""
        return super().adopt(frame_len).validate(frame_len)

    def release(self) -> None:
        try:
            super().release()
        except BlockStateError as exc:
            first = self.last_event("free")
            detail = (
                f"\n  first freed:\n{first.render()}" if first else ""
            )
            notify = getattr(self._owner, "_notify_violation", None)
            if notify is not None:
                notify("double-free")
            raise DoubleFreeError(
                f"double free of block #{self.index}: {exc}{detail}"
            ) from exc


class _SanitizingMixin:
    """Allocator mixin: instrumented blocks, poison, canaries, audits.

    Mixed in *before* a concrete allocation scheme; relies only on the
    :class:`~repro.mem.pool.Allocator` subclass contract
    (``_make_block`` / ``_acquire`` / ``_recycle``), so both schemes
    get sanitized by two trivial subclasses below.
    """

    # provided by the Allocator base the mixin is composed with
    lock: threading.Lock

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._tracked: list[SanitizedBlock] = []
        #: observer slot for crash instrumentation (the executive's
        #: flight recorder plugs in here); called with the violation
        #: kind ("double-free" / "use-after-free") *before* raising.
        self.on_violation: Callable[[str], None] | None = None
        super().__init__(*args, **kwargs)

    # -- subclass-contract overrides ---------------------------------------
    def _make_block(
        self, memory: memoryview, *, index: int, size_class: int
    ) -> PoolBlock:
        block = SanitizedBlock(
            memory, index=index, size_class=size_class, owner=self  # type: ignore[arg-type]
        )
        self._tracked.append(block)
        return block

    def _acquire(self, size: int) -> PoolBlock:
        block = super()._acquire(size)  # type: ignore[misc]
        self._verify_canary(block)
        block.poisoned = False
        block._record("alloc")
        return block

    def _recycle(self, block: SanitizedBlock) -> None:
        block._record("free")
        block.memory[:] = bytes([POISON]) * block.capacity
        block.poisoned = True
        super()._recycle(block)  # type: ignore[misc]

    # -- checks -------------------------------------------------------------
    def _notify_violation(self, kind: str) -> None:
        if self.on_violation is not None:
            self.on_violation(kind)

    def _verify_canary(self, block: SanitizedBlock) -> None:
        if not block.poisoned:
            return  # never freed yet: memory is virgin, no canary
        if block.memory.tobytes().count(POISON) != block.capacity:
            free = block.last_event("free")
            detail = f"\n  freed:\n{free.render()}" if free else ""
            self._notify_violation("use-after-free")
            raise UseAfterFreeError(
                f"use-after-free write detected in block #{block.index}: "
                f"poison canary overwritten while on the free list{detail}"
            )

    def sanitize_audit(self) -> list[str]:
        """Scan every free block's canary; returns violation reports."""
        reports = []
        with self.lock:
            for block in self._tracked:
                if not block.poisoned or block.loaned:
                    continue
                if block.memory.tobytes().count(POISON) != block.capacity:
                    reports.append(
                        f"block #{block.index}: freed memory was written "
                        f"(use-after-free)\n{block.history()}"
                    )
        return reports

    def sanitize_leaks(self) -> list[str]:
        """Every still-loaned block, with its allocation site."""
        reports = []
        with self.lock:
            for block in self._tracked:
                if not block.loaned:
                    continue
                alloc = block.last_event("alloc")
                site = f"\n{alloc.render()}" if alloc else ""
                reports.append(
                    f"block #{block.index} leaked (still loaned){site}"
                )
        return reports


class SanitizingTableAllocator(_SanitizingMixin, TableAllocator):
    """The table-matched scheme with sanitizer instrumentation."""


class SanitizingOriginalAllocator(_SanitizingMixin, OriginalAllocator):
    """The paper's first-fit scheme with sanitizer instrumentation."""


def audit_pool(pool: BufferPool) -> list[str]:
    """Canary-scan ``pool``; empty list when clean or not sanitizing."""
    audit = getattr(pool.allocator, "sanitize_audit", None)
    return audit() if audit is not None else []


def leak_report(pool: BufferPool) -> list[str]:
    """Leaked-block report for ``pool``; empty when clean/unsanitized."""
    leaks = getattr(pool.allocator, "sanitize_leaks", None)
    return leaks() if leaks is not None else []


def assert_clean(pool: BufferPool) -> None:
    """Raise at shutdown if the sanitized pool has leaks or torn canaries.

    A no-op for unsanitized pools, so callers (the transport harness,
    executive teardown paths) can invoke it unconditionally.
    """
    problems = audit_pool(pool)
    leaks = leak_report(pool)
    if leaks:
        problems.append(
            f"{len(leaks)} block(s) still loaned at shutdown:\n"
            + "\n".join(leaks)
        )
    if problems:
        raise LeakError("pool sanitizer report:\n" + "\n".join(problems))


# ---------------------------------------------------------------------------
# thread-affinity guard (runtime twin of the static RACE rules)
# ---------------------------------------------------------------------------

class AffinityViolationError(RuntimeError):
    """A device attribute was assigned from the wrong thread.

    Device state belongs to the thread that drives its executive's loop
    of control; transport receive threads must hand work over with
    :meth:`~repro.core.executive.Executive.post_inbound` instead of
    reaching into devices directly.
    """


def affinity_enabled() -> bool:
    """Is the thread-affinity guard switched on for this process?"""
    return os.environ.get("REPRO_AFFINITY", "").strip().lower() in _TRUTHY


#: attributes the lifecycle itself assigns from arbitrary call sites
#: (``plugin``/``unplug`` run wherever registration happens)
_AFFINITY_EXEMPT_ATTRS = frozenset({"executive", "tid"})

#: saved originals while the guard is installed: (Executive.step,
#: Listener.__setattr__) — ``None`` when not installed
_affinity_originals: tuple[Callable[..., Any], Callable[..., Any]] | None = None


def install_affinity_guard() -> None:
    """Patch the core classes to enforce dispatch-thread affinity.

    * :meth:`Executive.step` records the thread driving the loop of
      control as the executive's **owner thread** (re-recorded every
      step, so a restarted executive's fresh loop thread takes over);
    * :meth:`Listener.__setattr__` raises
      :class:`AffinityViolationError` when a plugged-in device's
      attribute is assigned by a thread that is neither the owner
      thread nor the main thread (single-threaded tests and
      registration-time setup stay unaffected).

    Classes with ``affinity_exempt = True`` (peer transports, which
    serialise their own state with explicit locks) are skipped.
    Idempotent; undo with :func:`uninstall_affinity_guard`.
    """
    global _affinity_originals
    if _affinity_originals is not None:
        return
    # Imported lazily: production code never pays for this module, and
    # the analysis package must not hard-depend on the core at import.
    from repro.core.device import Listener
    from repro.core.executive import Executive

    orig_step = Executive.step
    orig_setattr = Listener.__setattr__

    def recording_step(self: Any) -> bool:
        # Recorded on every call, not just the first: a restarted
        # executive gets a fresh loop thread, and ownership follows
        # whoever legitimately drives the loop of control now.
        self._affinity_thread = threading.get_ident()
        return orig_step(self)

    def guarded_setattr(self: Any, name: str, value: Any) -> None:
        exe = self.__dict__.get("executive")
        if (
            exe is not None
            and name not in _AFFINITY_EXEMPT_ATTRS
            and not getattr(type(self), "affinity_exempt", False)
        ):
            owner = getattr(exe, "_affinity_thread", None)
            current = threading.current_thread()
            if (
                owner is not None
                and current.ident != owner
                and current is not threading.main_thread()
            ):
                raise AffinityViolationError(
                    f"{type(self).__name__}.{name} assigned from thread "
                    f"{current.name!r} but device {self.name!r} belongs "
                    f"to the loop-of-control thread (ident {owner}); "
                    "marshal via Executive.post_inbound instead"
                )
        orig_setattr(self, name, value)

    Executive.step = recording_step  # type: ignore[method-assign]
    Listener.__setattr__ = guarded_setattr  # type: ignore[method-assign]
    _affinity_originals = (orig_step, orig_setattr)


def uninstall_affinity_guard() -> None:
    """Restore the unpatched ``step``/``__setattr__``; idempotent."""
    global _affinity_originals
    if _affinity_originals is None:
        return
    from repro.core.device import Listener
    from repro.core.executive import Executive

    orig_step, orig_setattr = _affinity_originals
    Executive.step = orig_step  # type: ignore[method-assign]
    Listener.__setattr__ = orig_setattr  # type: ignore[method-assign]
    _affinity_originals = None
