"""Broadcast: one loan and one copy per listener.

``Executive._broadcast`` fans a frame out as fan-out ``emit`` and
interrupts do: every listener gets a frame of its own, its block's one
``Frame``, and the original is freed.  These tests pin that down (one
block per listener), property-test that no combination of retaining
and non-retaining listeners may double-free or leak, and check that a
pool running dry part way through the fan-out drops the deliveries
left, counts them, and keeps the pool whole.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitize import SanitizingOriginalAllocator
from repro.core.device import RETAIN, Listener
from repro.core.executive import Executive
from repro.i2o.frame import HEADER_SIZE, Frame
from repro.i2o.tid import TID_BROADCAST
from repro.mem.pool import BufferPool, OriginalAllocator

XF = 0x7


class Retainer(Listener):
    """Keeps every broadcast frame it sees alive past its dispatch."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.kept: list[Frame] = []

    def on_plugin(self) -> None:
        self.bind(XF, self._h)

    def _h(self, frame: Frame):
        if frame.is_reply:
            return None
        self.kept.append(frame)
        return RETAIN


class Dropper(Listener):
    """Observes the payload and lets the dispatcher release the frame."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.seen: list[bytes] = []

    def on_plugin(self) -> None:
        self.bind(XF, self._h)

    def _h(self, frame: Frame) -> None:
        if not frame.is_reply:
            self.seen.append(bytes(frame.payload))


class TestSharedBroadcast:
    def test_each_listener_gets_its_own_block(self):
        """One loan of the payload per listener besides the sender's
        own, and no more: every retained delivery is the one frame of a
        block of its own, and every other loan the send causes is a
        header-only failure reply."""
        exe = Executive()
        sender = Dropper("sender")
        exe.install(sender)
        retainers = [Retainer(f"r{i}") for i in range(3)]
        for r in retainers:
            exe.install(r)
        payload = b"z" * 300
        loans: list[int] = []
        pool_alloc = exe.pool.alloc
        exe.pool.alloc = lambda size: loans.append(size) or pool_alloc(size)
        before = exe.pool.stats.allocs
        sender.send(TID_BROADCAST, payload, xfunction=XF)
        exe.run_until_idle()

        listeners = len(exe.devices()) - 1  # the executive's own included
        assert loans.count(HEADER_SIZE + len(payload)) == 1 + listeners
        assert set(loans) - {HEADER_SIZE + len(payload)} <= {HEADER_SIZE}
        assert exe.pool.stats.allocs - before == len(loans)
        kept = [r.kept[0] for r in retainers]
        assert len({id(f.block) for f in kept}) == len(retainers)
        for f in kept:
            assert f.block.frame is f and f.block.loaned
            assert bytes(f.payload) == payload
            exe.frame_free(f)
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0

    def test_each_delivery_has_its_own_target(self):
        exe = Executive()
        sender = Dropper("sender")
        exe.install(sender)
        retainers = [Retainer(f"r{i}") for i in range(3)]
        tids = [exe.install(r) for r in retainers]
        sender.send(TID_BROADCAST, b"addressed", xfunction=XF)
        exe.run_until_idle()
        for tid, r in zip(tids, retainers):
            assert r.kept[0].target == tid
            exe.frame_free(r.kept[0])

    @given(
        payload_len=st.integers(min_value=0, max_value=4096),
        n_retainers=st.integers(min_value=0, max_value=4),
        n_droppers=st.integers(min_value=0, max_value=4),
        rounds=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_retaining_broadcast_cannot_double_free_or_leak(
        self, payload_len, n_retainers, n_droppers, rounds
    ):
        """Any mix of retaining and non-retaining listeners over any
        payload: every retained share reads the unclobbered payload,
        releasing them all returns the pool to empty, and conservation
        holds throughout (a double free would raise in release())."""
        exe = Executive()
        sender = Dropper("sender")
        exe.install(sender)
        retainers = [Retainer(f"r{i}") for i in range(n_retainers)]
        droppers = [Dropper(f"d{i}") for i in range(n_droppers)]
        for dev in [*retainers, *droppers]:
            exe.install(dev)
        for round_no in range(rounds):
            payload = bytes([round_no]) * payload_len
            sender.send(TID_BROADCAST, payload, xfunction=XF)
            exe.run_until_idle()
            for d in droppers:
                assert d.seen[-1] == payload
            for r in retainers:
                assert bytes(r.kept[-1].payload) == payload
        for r in retainers:
            for frame in r.kept:
                exe.frame_free(frame)
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0


@pytest.mark.parametrize("allocator", [OriginalAllocator,
                                       SanitizingOriginalAllocator])
def test_a_pool_running_dry_mid_fanout_drops_the_rest(allocator, caplog):
    """Three blocks: the original and two deliveries, in install order
    (the executive's own device, then ``r0``).  The listeners left are
    counted as dropped and logged, ``step`` returns normally, and the
    original goes back to the pool: only ``r0``'s delivery stays
    loaned."""
    exe = Executive(pool=BufferPool(allocator(block_size=256, block_count=3)))
    sender = Dropper("sender")
    exe.install(sender)
    retainers = [Retainer(f"r{i}") for i in range(4)]
    for r in retainers:
        exe.install(r)
    listeners = len(exe.devices()) - 1
    sender.send(TID_BROADCAST, b"b" * 100, xfunction=XF)
    while exe.step():
        pass

    assert [len(r.kept) for r in retainers] == [1, 0, 0, 0]
    kept = [f for r in retainers for f in r.kept]
    assert exe.dropped == listeners - 2
    assert f"lost to {listeners - 2} of {listeners} listeners" in caplog.text
    assert exe.pool.in_flight == len(kept)
    assert all(bytes(f.payload) == b"b" * 100 for f in kept)
    exe.pool.check_conservation()
    for f in kept:
        exe.frame_free(f)
    exe.pool.check_conservation()
    assert exe.pool.in_flight == 0
