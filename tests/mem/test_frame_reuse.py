"""A pool block owns one ``Frame`` for its whole life.

Every loan re-heads the block's own frame — ``frame_alloc`` packs a
header into it, an ingest re-reads one — so a hop builds no Python
object.  These tests check that the reuse is real (one frame per block,
one block per frame, across alloc, both in-process transports, RETAIN,
broadcast and free on two executives) and safe (every live frame's
slots are its buffer's header, no two live loans share a frame, the
pools conserve), that the wire door validates while an in-process hop
adopts on trust, and that a sanitized block still refuses a header
declaring more bytes than were handed over.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitize import SanitizedBlock, SanitizingTableAllocator
from repro.core.device import RETAIN, Listener
from repro.core.executive import Executive
from repro.i2o.errors import FrameFormatError
from repro.i2o.frame import _HEADER, Frame
from repro.i2o.tid import EXECUTIVE_TID, TID_BROADCAST
from repro.mem.block import PoolBlock
from repro.mem.pool import BufferPool, TableAllocator
from repro.transports import base
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport
from repro.transports.queued import QueuePair, QueueTransport

XF_KEEP = 0x1
XF_DROP = 0x2


class Reuse:
    """Every frame seen with the block it was seen in: a bijection
    while frames recycle with their blocks."""

    def __init__(self) -> None:
        self.frame_of: dict[PoolBlock, Frame] = {}
        self.block_of: dict[Frame, PoolBlock] = {}

    def see(self, frame: Frame) -> None:
        block = frame.block
        assert block is not None, "a live frame owns its block"
        assert self.frame_of.setdefault(block, frame) is frame
        assert self.block_of.setdefault(frame, block) is block


class Keeper(Listener):
    def __init__(self, reuse: Reuse) -> None:
        super().__init__("keeper")
        self.reuse = reuse
        self.kept: list[Frame] = []
        #: the transaction context of every frame dispatched here
        self.seen: list[int] = []

    def on_plugin(self) -> None:
        self.bind(XF_KEEP, self._keep)
        self.bind(XF_DROP, self._drop)

    def _keep(self, frame: Frame):
        self._drop(frame)
        if frame.is_reply:
            return None
        self.kept.append(frame)
        return RETAIN

    def _drop(self, frame: Frame) -> None:
        self.reuse.see(frame)
        assert_coherent(frame)
        self.seen.append(frame.transaction_context)


def assert_coherent(frame: Frame) -> None:
    assert frame.header_fields() == _HEADER.unpack_from(frame.view, 0)


def _cluster(kind: str, reuse: Reuse, *, sanitized: bool = False):
    exes = [
        Executive(node=node, pool=BufferPool(SanitizingTableAllocator())
                  if sanitized else None)
        for node in (0, 1)
    ]
    if kind == "queued":
        pair = QueuePair(0, 1)
        pts = [QueueTransport(pair, name="q"), QueueTransport(pair, name="q")]
    else:
        network = LoopbackNetwork()
        pts = [LoopbackTransport(network), LoopbackTransport(network)]
    keepers = [Keeper(reuse), Keeper(reuse)]
    tids = []
    for exe, pt, keeper in zip(exes, pts, keepers):
        PeerTransportAgent.attach(exe).register(pt, default=True)
        tids.append(exe.install(keeper))
    proxies = [exes[0].create_proxy(1, tids[1]), exes[1].create_proxy(0, tids[0])]
    return exes, keepers, tids, proxies


def _pump(exes: list[Executive]) -> None:
    while any(exe.step() for exe in exes):
        pass


side = st.integers(0, 1)
OPS = st.lists(
    st.one_of(
        # loan a frame on a side, addressed locally, remotely or to all
        st.tuples(st.just("alloc"), side, st.integers(0, 300),
                  st.sampled_from(["local", "remote", "all"]),
                  st.sampled_from([XF_KEEP, XF_DROP])),
        st.tuples(st.just("send"), st.integers(0, 50)),
        st.tuples(st.just("free"), st.integers(0, 50)),
        st.tuples(st.just("release"), side, st.integers(0, 50)),
        st.tuples(st.just("pump")),
    ),
    max_size=40,
)


@pytest.mark.parametrize("kind", ["queued", "loopback"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(ops=OPS)
def test_frames_recycle_with_their_blocks(kind, ops):
    reuse = Reuse()
    exes, keepers, tids, proxies = _cluster(kind, reuse)
    held: list[tuple[int, Frame]] = []  # (side, frame) the test owns

    def check() -> None:
        live = [f for _, f in held] + [f for k in keepers for f in k.kept]
        for frame in live:
            assert frame.block is not None
            assert_coherent(frame)
        assert len({id(f) for f in live}) == len(live)
        for exe in exes:
            exe.pool.check_conservation()

    for op in ops:
        if op[0] == "alloc":
            _, at, size, dest, xf = op
            target = {"local": tids[at], "remote": proxies[at],
                      "all": TID_BROADCAST}[dest]
            frame = exes[at].frame_alloc(
                size, target=target, initiator=tids[at], xfunction=xf)
            frame.payload[:] = bytes([size & 0xFF]) * size
            reuse.see(frame)
            held.append((at, frame))
        elif op[0] in ("send", "free") and held:
            at, frame = held.pop(op[1] % len(held))
            if op[0] == "send":
                exes[at].frame_send(frame)
            else:
                exes[at].frame_free(frame)
        elif op[0] == "release" and keepers[op[1]].kept:
            kept = keepers[op[1]].kept
            exes[op[1]].frame_free(kept.pop(op[2] % len(kept)))
        elif op[0] == "pump":
            _pump(exes)
        check()

    _pump(exes)
    check()
    for at, frame in held:
        exes[at].frame_free(frame)
    for exe, keeper in zip(exes, keepers):
        for frame in keeper.kept:
            exe.frame_free(frame)
    for exe in exes:
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0
    # every frame ever seen is the one frame of one block
    assert len(reuse.block_of) == len(reuse.frame_of)


@pytest.mark.parametrize("kind", ["queued", "loopback"])
def test_ingest_refuses_a_header_longer_than_the_handover(kind):
    """An in-process hop is trusted; the sanitizer's blocks re-check it."""
    reuse = Reuse()
    exes, _keepers, tids, _proxies = _cluster(kind, reuse, sanitized=True)
    sender, receiver = exes
    pt = receiver.pta.transports()[0]
    frame = sender.frame_alloc(40, target=tids[1])
    node, block, size = sender.pta.transports()[0].make_handoff(frame)
    with pytest.raises(FrameFormatError, match="overruns buffer of 64"):
        pt.ingest_staged((node, block, size - 8))
    assert block.frame.block is None  # returned unloaned
    for exe in exes:
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0
        assert exe.idle


@pytest.mark.parametrize("function", [
    Executive.frame_alloc,
    Executive.frame_loan,
    base.PeerTransport.ingest_staged,
    base.PeerTransport.ingest_loaned,
    base._adopt,
], ids=lambda f: f.__qualname__)
def test_a_hop_slices_no_block_and_builds_no_frame(function):
    """The loan and both ingest paths re-head ``block.frame``: no slice
    of a block's ``memory`` and no ``Frame`` constructor on the way."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            value = node.value
            assert not (isinstance(value, ast.Attribute)
                        and value.attr == "memory"), ast.unparse(node)
        if isinstance(node, ast.Call):
            called = ast.unparse(node.func)
            assert called.split(".")[0] != "Frame", called
            assert "__new__" not in called and "_undecoded" not in called


def _calls(function) -> set[str]:
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return {ast.unparse(node.func).split(".")[-1]
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_the_wire_door_validates_and_the_in_process_hop_trusts():
    """One check per trust boundary: bytes from a wire are validated at
    ``ingest_loaned``; a block handed over in-process is adopted on
    trust, and only a sanitized block re-validates it."""
    assert "_adopt" in _calls(base.PeerTransport.ingest_loaned)
    assert "validate" in _calls(base._adopt)
    assert "adopt" in _calls(base.PeerTransport.ingest_staged)
    assert not {"_adopt", "validate"} & _calls(base.PeerTransport.ingest_staged)
    assert "validate" not in _calls(PoolBlock.adopt)
    assert "validate" in _calls(SanitizedBlock.adopt)


class Forwarder(Listener):
    """Retains a broadcast delivery, restamps it and forwards it."""

    def __init__(self) -> None:
        super().__init__("forwarder")
        self.to: int | None = None

    def on_plugin(self) -> None:
        self.bind(XF_DROP, self._forward)

    def _forward(self, frame: Frame):
        frame.transaction_context = 0xC0FFEE  # written through the share
        frame.target = self.to
        self.executive.frame_send(frame)
        return RETAIN


@pytest.mark.parametrize("kind", ["queued", "loopback"])
def test_a_forwarded_broadcast_delivery_crosses_with_coherent_slots(kind):
    """A broadcast delivery restamped and forwarded by its handler
    crosses like any frame: it carries its own header, so the remote
    device dispatches it (its keeper checks the slots against the
    bytes) and no node drops it."""
    reuse = Reuse()
    exes, keepers, tids, proxies = _cluster(kind, reuse)
    forwarder = Forwarder()
    exes[0].install(forwarder)
    forwarder.to = proxies[0]
    exes[0].frame_send(exes[0].frame_alloc(
        8, target=TID_BROADCAST, initiator=tids[0], xfunction=XF_DROP))
    _pump(exes)
    assert keepers[1].seen == [0xC0FFEE]
    assert [exe.dropped for exe in exes] == [0, 0]
    for exe in exes:
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0


class _LoanedAgainOnRelease(PoolBlock):
    """A block whose owner loans it out again the moment it recycles,
    before the releasing call returns: what the owner's own thread may
    do while a peer's thread frees the block it was handed."""

    __slots__ = ()
    reloan = None

    def release(self) -> None:
        super().release()
        if _LoanedAgainOnRelease.reloan is not None:
            _LoanedAgainOnRelease.reloan()


class _ReloaningAllocator(TableAllocator):
    def _make_block(self, memory, *, index, size_class):
        return _LoanedAgainOnRelease(memory, index=index,
                                     size_class=size_class, owner=self)


def test_a_free_leaves_the_next_loan_of_its_block_intact(monkeypatch):
    """``frame_free`` lets go of the frame before the block: a free
    that clears ``frame.block`` after the release clobbers the next
    loan's handle, and that frame then crosses as a copy and its block
    leaks (seen as a rare ``1 blocks leaked`` in the threaded wake-up
    stress test)."""
    owner = Executive(node=0, pool=BufferPool(_ReloaningAllocator()))
    frame = owner.frame_alloc(8, target=EXECUTIVE_TID)
    loans = []
    monkeypatch.setattr(_LoanedAgainOnRelease, "reloan", lambda: loans.append(
        owner.frame_alloc(8, target=EXECUTIVE_TID)))
    Executive(node=1).frame_free(frame)  # the peer frees it
    monkeypatch.setattr(_LoanedAgainOnRelease, "reloan", None)
    (again,) = loans
    assert again is frame  # the block's own frame, re-headed  # repro: noqa OWN001
    assert again.block is not None and again.block.loaned
    owner.frame_free(again)
    owner.pool.check_conservation()
    assert owner.pool.in_flight == 0

