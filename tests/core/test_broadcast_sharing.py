"""Shared-block broadcast: one pool block, many deliveries.

``Executive._broadcast`` no longer clones the frame per listener — it
fans one refcounted block out as :class:`SharedFrame` deliveries.
These tests pin the sharing down (one allocation feeds N listeners)
and property-test the scary part: a RETAINing handler extends the
shared block's life past its dispatch, and no combination of retaining
and non-retaining listeners may double-free or leak it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.device import RETAIN, Listener
from repro.core.executive import Executive
from repro.i2o.frame import HEADER_SIZE, Frame, SharedFrame
from repro.i2o.tid import TID_BROADCAST

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
    def test_one_allocation_feeds_every_listener(self):
        """The broadcast payload is loaned once — no per-listener
        clones: every retained share aliases that one block, whose
        refcount is the listener count, and every other loan the send
        causes is a header-only failure reply."""
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

        assert loans.count(HEADER_SIZE + len(payload)) == 1
        assert set(loans) - {HEADER_SIZE + len(payload)} <= {HEADER_SIZE}
        assert exe.pool.stats.allocs - before == len(loans)
        kept = [r.kept[0] for r in retainers]
        assert all(isinstance(f, SharedFrame) for f in kept)
        blocks = {id(f.block) for f in kept}
        assert len(blocks) == 1, "retained shares must alias one block"
        assert kept[0].block.refcount == len(retainers)
        for f in kept:
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
