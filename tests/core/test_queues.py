"""The messaging instance."""

from __future__ import annotations

import faulthandler
import os
import socket
import sys
import tempfile
import threading
import time
from collections import deque

from repro.core.queues import MessagingInstance
from repro.i2o.frame import Frame

TARGET_TID = 1
INITIATOR_TID = 2


def frame(tag: int = 0) -> Frame:
    return Frame.build(target=TARGET_TID, initiator=INITIATOR_TID,
                       transaction_context=tag)


def test_starts_idle():
    msgi = MessagingInstance()
    assert msgi.idle
    assert msgi.take_inbound() is None
    assert msgi.take_outbound() is None


def test_inbound_fifo():
    msgi = MessagingInstance()
    for tag in range(3):
        msgi.post_inbound(frame(tag))
    tags = [msgi.take_inbound().transaction_context for _ in range(3)]
    assert tags == [0, 1, 2]
    assert msgi.take_inbound() is None


def test_outbound_independent_of_inbound():
    msgi = MessagingInstance()
    msgi.post_outbound(frame(9))
    assert msgi.take_inbound() is None
    assert msgi.take_outbound().transaction_context == 9


def test_counters():
    msgi = MessagingInstance()
    msgi.post_inbound(frame())
    msgi.post_outbound(frame())
    msgi.post_outbound(frame())
    assert msgi.posted_inbound == 1
    assert msgi.posted_outbound == 2


def test_on_work_callback_fires_for_both_queues():
    calls = []
    msgi = MessagingInstance()
    msgi.on_work = lambda: calls.append(1)
    msgi.post_inbound(frame())
    msgi.post_outbound(frame())
    assert len(calls) == 2


def test_wait_for_work_returns_immediately_if_pending():
    msgi = MessagingInstance()
    msgi.post_inbound(frame())
    assert msgi.wait_for_work(timeout=0) is True


def test_wait_for_work_times_out():
    assert MessagingInstance().wait_for_work(timeout=0.01) is False


def test_wait_for_work_wakes_on_cross_thread_post():
    msgi = MessagingInstance()
    results = []

    def waiter():
        results.append(msgi.wait_for_work(timeout=5))

    t = threading.Thread(target=waiter)
    t.start()
    msgi.post_inbound(frame())
    t.join(timeout=5)
    assert results == [True]


# -- untimed parking: every case fails by assertion, never by hanging -----------
JOIN_S = 10.0


def _run(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def _joined(*threads: threading.Thread, timeout: float = JOIN_S) -> bool:
    """Join with a bound; a thread that slept through its wake-up is
    named by a dump of every stack, then the caller's assertion fails."""
    for thread in threads:
        thread.join(timeout=timeout)
    stuck = any(thread.is_alive() for thread in threads)
    if stuck:
        faulthandler.dump_traceback()
    return not stuck


def test_untimed_wait_wakes_on_cross_thread_post():
    msgi = MessagingInstance()
    results = []
    waiter = _run(lambda: results.append(msgi.wait_for_work(None)))
    deadline = time.monotonic() + JOIN_S
    while not msgi.parking and time.monotonic() < deadline:
        time.sleep(0.001)
    assert msgi.parking, "waiter never announced its park"
    time.sleep(0.02)  # let it block for real
    msgi.post_outbound(frame())
    assert _joined(waiter), "wait_for_work(None) slept through a post"
    assert results == [True]
    assert msgi.parking is False


def test_a_ring_is_sticky_then_consumed():
    msgi = MessagingInstance()
    msgi.ring()
    msgi.ring()  # a second ring is swallowed, not queued
    started = time.monotonic()
    assert msgi.wait_for_work(timeout=5) is True  # nobody was parked: kept
    assert time.monotonic() - started < 1.0
    assert msgi.wait_for_work(timeout=0.02) is False  # ... and used up


def test_posting_with_nobody_parked_leaves_the_bell_alone():
    msgi = MessagingInstance()
    msgi.post_inbound(frame())
    assert msgi.take_inbound() is not None
    assert msgi.wait_for_work(timeout=0.02) is False


def test_wait_for_work_announces_before_it_looks():
    """The lost-wake-up fix is an order: parking flag, then the queues."""
    msgi = MessagingInstance()
    flag_when_read: list[bool] = []

    class Watched(deque):
        def __len__(self) -> int:
            flag_when_read.append(msgi.parking)
            return super().__len__()

    msgi._inbound, msgi._outbound = Watched(), Watched()
    assert msgi.wait_for_work(timeout=0) is False
    assert len(flag_when_read) == 2 and all(flag_when_read)
    assert msgi.parking is False


def _stall_report(**instances: MessagingInstance) -> str:
    """Every thread's stack, and whether each instance's bell still
    holds a ring: a ring that is there was sent but slept through, a
    bell that is silent was never rung (the wake-up was lost before
    the ring).  The read is put back, so the report changes nothing."""
    bells = []
    for name, msgi in instances.items():
        if msgi._bell < 0:
            bells.append(f"{name}: no bell")
            continue
        try:
            rings = os.eventfd_read(msgi._bell)
        except BlockingIOError:
            rings = 0
        else:
            os.eventfd_write(msgi._bell, rings)
        bells.append(f"{name}: {rings} ring(s) pending")
    with tempfile.TemporaryFile("w+") as out:
        faulthandler.dump_traceback(file=out, all_threads=True)
        out.seek(0)
        stacks = out.read()
    return "; ".join(bells) + "\n" + stacks


def test_untimed_handoffs_between_two_threads_lose_none():
    """20 000 post/park hand-offs, no timeout anywhere: one lost
    wake-up and both threads sleep for ever."""
    rounds = 20_000
    ping, pong = MessagingInstance(), MessagingInstance()
    token = frame()

    def bounce(mine: MessagingInstance, theirs: MessagingInstance) -> None:
        for _ in range(rounds):
            while mine.take_inbound() is None:
                mine.wait_for_work(None)
            theirs.post_inbound(token)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the handshake too
    try:
        echo = _run(lambda: bounce(pong, ping))
        ping.post_inbound(token)
        driver = _run(lambda: bounce(ping, pong))
        # A busy host makes this slow; only a lost wake-up makes it
        # stop.  Give up when a whole second passes without a hand-off.
        # Watch both threads: the echo can finish while the driver is
        # still inside its last post's ring.
        seen = -1
        while (echo.is_alive() or driver.is_alive()) \
                and seen != ping.posted_inbound:
            seen = ping.posted_inbound
            driver.join(timeout=1.0)
            echo.join(timeout=1.0)
        stalled = echo.is_alive() or driver.is_alive()
        assert not stalled, (
            f"stalled after {ping.posted_inbound} of {rounds} hand-offs "
            f"(parking: {ping.parking}, {pong.parking}; "
            f"idle: {ping.idle}, {pong.idle}); "
            + _stall_report(ping=ping, pong=pong)
        )
    finally:
        sys.setswitchinterval(previous)
    # the kick-off plus the echo's posts; the driver's posts
    assert (ping.posted_inbound, pong.posted_inbound) == (rounds + 1, rounds)


def test_a_watched_fd_is_serviced_by_the_park_and_by_service():
    msgi = MessagingInstance()
    reader, writer = socket.socketpair()
    seen: list[bytes] = []
    msgi.watch(reader.fileno(), lambda mask: seen.append(reader.recv(16)))
    try:
        assert msgi.service() is False  # nothing ready
        writer.send(b"one")
        assert msgi.wait_for_work(timeout=5) is True
        assert seen == [b"one"]
        writer.send(b"two")
        assert msgi.service() is False  # right after a park: it just polled
        assert msgi.service() is True
        assert seen == [b"one", b"two"]
        msgi.unwatch(reader.fileno())
        writer.send(b"three")
        assert msgi.wait_for_work(timeout=0.02) is False
        assert seen == [b"one", b"two"]
    finally:
        msgi.close()
        reader.close()
        writer.close()
