"""The messaging instance: inbound and outbound frame queues.

Paper figure 2 / §3.5: *"All communication travels through the inbound
and outbound queues of the local node."*  Devices post requests and
replies to the **outbound** queue; the executive routes each outbound
frame either to a local device (via the scheduler) or to a peer
transport.  Peer transports deposit received frames into the
**inbound** queue, from which the executive dispatches.

Any thread may post; exactly one — the loop of control — drains and
parks, in one epoll that also serves the fds a peer transport watches
(Linux: epoll + eventfd).  Every producer of work (posts, timers,
polling-PT staging, returned credits) wakes it through
:meth:`MessagingInstance.wake` (inline in the per-message posts).
"""

from __future__ import annotations

import os
import select
import threading
from collections import deque
from typing import Callable

from repro.i2o.frame import Frame


class MessagingInstance:
    """Inbound + outbound FIFO pair; any thread posts, one drains.

    ``deque.append``/``popleft`` are atomic under CPython's GIL, so the
    queues themselves need no lock — this sits on the per-message hot
    path.  The one consumer (the loop of control) sleeps in
    :meth:`wait_for_work` on a sticky doorbell that a post rings only
    while it is :attr:`parking`: single-threaded use pays one attribute
    test per post.
    """

    # No wake-up is lost, by order alone (the GIL makes it sequentially
    # consistent): the consumer sets ``parking`` *before* it looks for
    # work, a producer publishes work *before* it reads ``parking`` —
    # so the consumer sees the work or the producer sees the flag.
    # Anything else the decision to sleep depends on (a timer deadline,
    # a polling transport's staged data, an edge credit) follows the
    # same rule: publish it, then :meth:`wake`.
    #
    # The bell is an eventfd in the loop's epoll: ``ring`` writes it,
    # the park (or a :meth:`service` pass) reads it back to silent.  A
    # ring nobody was parked for stays: the next park returns at once,
    # which costs one spurious ``step()`` and nothing else.  Both fds
    # open on first use — a stepped executive that watches nothing
    # holds none — and :meth:`close` gives them back until the next.

    def __init__(self) -> None:
        self._inbound: deque[Frame] = deque()
        self._outbound: deque[Frame] = deque()
        #: fd -> (callback(event mask), events); ``step()`` polls the
        #: epoll only while this is non-empty
        self.watched: dict[int, tuple[Callable[[int], None], int]] = {}
        self._epoll: select.epoll | None = None
        self._bell = -1
        self._just_polled = False
        self._opening = threading.Lock()
        self.parking = False
        #: called by every :meth:`wake`; a sim-plane node sets it to
        #: resume its simulated process
        self.on_work: Callable[[], None] | None = None
        self.posted_inbound = 0
        self.posted_outbound = 0

    def ring(self) -> None:
        """Wake the consumer, now or at its next park (any thread)."""
        if self._bell < 0:
            self._open()
        os.eventfd_write(self._bell, 1)

    def wake(self) -> None:
        """Work was just published for the consumer (any thread)."""
        if self.parking:
            self.ring()
        if self.on_work is not None:
            self.on_work()

    # -- posting ------------------------------------------------------------
    def post_inbound(self, frame: Frame) -> None:
        """Deposit a frame arriving from the wire (or local loopback)."""
        self._inbound.append(frame)
        self.posted_inbound += 1
        if self.parking:
            self.ring()
        if self.on_work is not None:
            self.on_work()

    def post_outbound(self, frame: Frame) -> None:
        """Deposit a frame a local device wants sent (frameSend)."""
        self._outbound.append(frame)
        self.posted_outbound += 1
        if self.parking:
            self.ring()
        if self.on_work is not None:
            self.on_work()

    # -- draining -----------------------------------------------------------
    # Test before popping: a raised-and-caught ``IndexError`` costs ten
    # times the truthiness test.  Safe because this is the queues' one
    # consumer.  ``Executive.step`` drains the deques inline instead;
    # these serve ``hard_stop`` and callers outside the loop.
    def take_inbound(self) -> Frame | None:
        return self._inbound.popleft() if self._inbound else None

    def take_outbound(self) -> Frame | None:
        return self._outbound.popleft() if self._outbound else None

    def wait_for_work(self, timeout: float | None = None) -> bool:
        """Park the consumer until there is work, a ring, a ready
        watched fd (serviced before it returns) or ``timeout`` seconds
        pass (``None``: no timer; epoll rounds up to whole ms).  False
        on timeout.  Single consumer by contract — the loop of control.
        """
        epoll = self._epoll or self._open()  # open *before* announcing
        self.parking = True  # announce, then look, then block
        try:
            if self._inbound or self._outbound:
                return True
            events = epoll.poll(timeout)
        finally:
            self.parking = False
        # The park just polled: the step() it returns to need not.
        self._just_polled = True
        return self._serve(events)

    # -- file descriptors (loop thread only) -------------------------------
    def watch(self, fd: int, callback: Callable[[int], None]) -> None:
        """While ``fd`` is readable (level-triggered; :meth:`modify` for
        other events), every park and ``step()`` calls
        ``callback(event_mask)`` on the loop thread."""
        self.watched[fd] = (callback, select.EPOLLIN)
        if self._epoll is not None:
            self._epoll.register(fd, select.EPOLLIN)

    def modify(self, fd: int, mask: int) -> None:
        """Change the events a watched ``fd`` is serviced for."""
        self.watched[fd] = (self.watched[fd][0], mask)
        if self._epoll is not None:
            self._epoll.modify(fd, mask)

    def unwatch(self, fd: int) -> None:
        """Stop servicing ``fd``; call it before closing the fd."""
        del self.watched[fd]
        if self._epoll is not None:
            self._epoll.unregister(fd)

    def service(self) -> bool:
        """Run the ready fds' callbacks (and silence a stray ring); True if
        anything was ready.  Skipped right after a park, which just polled."""
        if self._just_polled:
            self._just_polled = False
            return False
        return self._serve((self._epoll or self._open()).poll(0))

    def _serve(self, events: list[tuple[int, int]]) -> bool:
        for fd, mask in events:
            if fd == self._bell:
                os.eventfd_read(fd)
            elif fd in self.watched:  # not unwatched earlier in this batch
                self.watched[fd][0](mask)
        return bool(events)

    def _open(self) -> select.epoll:
        with self._opening:  # a stop() may ring while the loop opens
            epoll = self._epoll
            if epoll is None:
                epoll = select.epoll()
                self._bell = os.eventfd(0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
                epoll.register(self._bell, select.EPOLLIN)
                for fd, (_callback, mask) in self.watched.items():
                    epoll.register(fd, mask)
                self._epoll = epoll
            return epoll

    def close(self) -> None:
        """Close the epoll and the bell once the consumer is gone
        (``Executive.stop``); watches are kept for the next open."""
        with self._opening:
            if self._epoll is not None:
                self._epoll.close()
                os.close(self._bell)
                self._epoll, self._bell = None, -1

    # -- introspection ------------------------------------------------------
    @property
    def idle(self) -> bool:
        return not self._inbound and not self._outbound
