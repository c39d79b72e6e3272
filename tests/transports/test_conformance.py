"""One contract, every peer transport.

The paper's §6 portability claim: applications address each other by
TiD and never see which peer transport carries the frames.  That only
holds if every transport honours the same delivery contract, so this
module runs one parametrized suite against all of them — the
in-process loopbacks, the fault-injection wrapper (clean plan), the
queue-pair mesh, real TCP sockets, and the two simulation-plane
hardware models (Myrinet/GM, PCI host↔IOP).
"""

from __future__ import annotations

import pytest

from repro.core.device import RETAIN, Listener
from repro.core.tracing import is_trace_context, trace_root_node
from repro.flightrec.timeline import project_hops
from repro.i2o.frame import MAX_PAYLOAD_SIZE
from repro.i2o.tid import TID_BROADCAST
from repro.mem.pool import PoolError

from tests.transports.harness import FACTORIES, Caller, Echo, Keeper, make_harness


@pytest.fixture(params=sorted(FACTORIES))
def harness(request):
    h = make_harness(request.param)
    yield h
    h.finish()


def _wire(harness):
    echo_tid = harness.exes[1].install(Echo())
    caller = Caller()
    harness.exes[0].install(caller)
    proxy = harness.exes[0].routes.create_proxy(1, echo_tid)
    return caller, proxy


class Forwarder(Listener):
    """Retargets the broadcast delivery it is handed and sends it on."""

    def __init__(self, to: int) -> None:
        super().__init__("forwarder")
        self.to = to

    def on_plugin(self):
        self.bind(0x1, self._forward)

    def _forward(self, frame):
        frame.target = self.to
        self.executive.frame_send(frame)
        return RETAIN


class TestTransportContract:
    def test_a_forwarded_broadcast_delivery_crosses(self, harness):
        # A retargeted broadcast delivery is a frame like any other:
        # what crosses carries its new target, or the receiver
        # dead-letters it as addressed to TiD 4095.
        keeper = Keeper()
        proxy = harness.exes[0].routes.create_proxy(
            1, harness.exes[1].install(keeper))
        sender = Caller()
        harness.exes[0].install(sender)
        harness.exes[0].install(Forwarder(proxy))
        sender.send(TID_BROADCAST, b"fan", xfunction=0x1)
        assert harness.run_until(lambda: keeper.payloads == [b"fan"])
        assert [exe.dropped for exe in harness.exes.values()] == [0, 0]

    def test_round_trip(self, harness):
        caller, proxy = _wire(harness)
        caller.send(proxy, b"payload", xfunction=0x1)
        assert harness.run_until(lambda: caller.replies == [b"payload"])

    def test_burst_delivered_exactly_once(self, harness):
        caller, proxy = _wire(harness)
        payloads = [f"msg-{i:03d}".encode() for i in range(harness.burst)]
        for p in payloads:
            caller.send(proxy, p, xfunction=0x1)
        assert harness.run_until(
            lambda: len(caller.replies) >= len(payloads)
        ), f"{harness.name}: {len(caller.replies)}/{len(payloads)} delivered"
        if harness.ordered:
            assert caller.replies == payloads
        else:
            assert sorted(caller.replies) == payloads

    @pytest.mark.parametrize("size", ["big", MAX_PAYLOAD_SIZE])
    def test_large_payload_intact(self, harness, size):
        # The largest payload is one full block: nothing chains blocks
        # (DESIGN §1), so that is the limit every transport must carry.
        caller, proxy = _wire(harness)
        size = harness.big_size if size == "big" else size
        big = (bytes(range(256)) * (size // 256 + 1))[:size]
        caller.send(proxy, big, xfunction=0x1)
        assert harness.run_until(lambda: bool(caller.replies))
        assert caller.replies == [big]

    def test_oversize_rejected_before_wire(self, harness):
        caller, proxy = _wire(harness)
        with pytest.raises(PoolError):
            caller.send(proxy, b"\0" * (MAX_PAYLOAD_SIZE + 1), xfunction=0x1)
        assert harness.pts[0].frames_sent == 0

    def test_unknown_tid_yields_failure_reply(self, harness):
        caller, _ = _wire(harness)
        stray = harness.exes[0].routes.create_proxy(1, 0x3F)  # nothing lives there
        caller.send(stray, b"anyone?", xfunction=0x2)
        assert harness.run_until(lambda: caller.failures == [True])

    def test_transaction_context_round_trips_the_wire(self, harness):
        # The 64-bit context fields must cross every transport intact
        # and come back in the reply — the carrier the tracer rides on.
        caller, proxy = _wire(harness)
        context = 0x0123_4567_89AB_CDEF
        caller.send(proxy, b"ctx", xfunction=0x1, transaction_context=context)
        assert harness.run_until(lambda: caller.replies == [b"ctx"])
        assert caller.reply_contexts == [context]

    def test_trace_context_propagates_across_transport(self, harness):
        recorders = harness.enable_tracing()
        caller, proxy = _wire(harness)
        caller.send(proxy, b"trace-me", xfunction=0x1)
        assert harness.run_until(lambda: caller.replies == [b"trace-me"])
        # The send was auto-rooted at node 0; the reply carries its id.
        (trace_id,) = caller.reply_contexts
        assert is_trace_context(trace_id)
        assert trace_root_node(trace_id) == 0
        # Both sides recorded hops of the same trace: the echo dispatch
        # on node 1 and the reply dispatch back on node 0.
        def spans_of(node):
            return [
                s for s in project_hops(node, recorders[node].records)
                if s.trace_id == trace_id
            ]
        assert harness.run_until(lambda: spans_of(0) and spans_of(1))
        assert {s.xfunction for s in spans_of(1)} == {0x1}
        for node in (0, 1):
            for span in spans_of(node):
                assert span.node == node
                assert span.queue_wait_ns >= 0
                assert span.dispatch_ns >= 0

    def test_counters_balance(self, harness):
        caller, proxy = _wire(harness)
        for _ in range(3):
            caller.send(proxy, b"abc", xfunction=0x1)
        assert harness.run_until(lambda: len(caller.replies) == 3)
        pt0, pt1 = harness.pts[0], harness.pts[1]
        # A threaded sender counts a frame after its sendmsg returns,
        # which may be after the peer has already dispatched it.
        assert harness.run_until(
            lambda: pt0.frames_sent == 3 and pt1.frames_sent == 3
        )
        assert harness.run_until(
            lambda: pt1.frames_received == 3 and pt0.frames_received == 3
        )
        assert pt0.bytes_sent == pt1.bytes_received
        assert pt1.bytes_sent == pt0.bytes_received

    def test_copy_budget(self, harness):
        caller, proxy = _wire(harness)
        n = 8
        for _ in range(n):
            caller.send(proxy, b"copy-counted", xfunction=0x1)
        assert harness.run_until(lambda: len(caller.replies) == n)
        harness.assert_copy_budget()


@pytest.mark.parametrize("name", ["loopback", "faulty", "queued"])
def test_an_unplugged_transport_lets_go_of_its_blocks(name):
    """Uninstalling a registered in-process transport with a frame
    staged toward it returns the block to the sender's pool, takes the
    transport out of the loop and the PTA, and fails a later send with
    the standard failure reply instead of staging it silently."""
    h = make_harness(name)
    sender, receiver = h.exes[0], h.exes[1]
    keeper = Keeper()
    caller = Caller()
    proxy = sender.routes.create_proxy(1, receiver.install(keeper))
    sender.install(caller)
    caller.send(proxy, b"staged", xfunction=0x2)
    sender.step()  # staged toward node 1, not yet ingested
    assert sender.pool.in_flight == 1
    receiver.uninstall(h.pts[1].tid)
    receiver.step()  # nothing is left to poll
    assert sender.pool.in_flight == 0
    assert h.pts[1] not in receiver._pollable
    assert receiver.pta.transports() == []
    caller.send(proxy, b"refused", xfunction=0x2)
    assert h.run_until(lambda: caller.failures == [True])
    assert keeper.payloads == []
    h.finish()
