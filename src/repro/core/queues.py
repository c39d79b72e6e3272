"""The messaging instance: inbound and outbound frame queues.

Paper figure 2 / §3.5: *"All communication travels through the inbound
and outbound queues of the local node."*  Devices post requests and
replies to the **outbound** queue; the executive routes each outbound
frame either to a local device (via the scheduler) or to a peer
transport.  Peer transports deposit received frames into the
**inbound** queue, from which the executive dispatches.

The queues are thread-safe because task-mode peer transports run in
their own threads (paper §4) while the dispatch loop drains them.  Any
thread may post; exactly one — the loop of control — drains and parks.
Every producer of work (posts, timers, polling-PT staging, returned
credits) wakes it through :meth:`MessagingInstance.wake`.
"""

from __future__ import annotations

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
    # The bell is a lock used as a binary semaphore, all in C: held =
    # silent, ``release`` rings, ``acquire`` parks.  A ring nobody was
    # parked for stays: the next park returns at once, which costs one
    # spurious ``step()`` and nothing else.

    def __init__(self, on_work: Callable[[], None] | None = None) -> None:
        self._inbound: deque[Frame] = deque()
        self._outbound: deque[Frame] = deque()
        self._bell = threading.Lock()
        self._bell.acquire()
        self.parking = False
        self.on_work = on_work
        self.posted_inbound = 0
        self.posted_outbound = 0

    def ring(self) -> None:
        """Wake the consumer, now or at its next park (any thread)."""
        try:
            self._bell.release()
        except RuntimeError:
            pass  # already rung: a second ring is swallowed

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
        self.wake()

    def post_outbound(self, frame: Frame) -> None:
        """Deposit a frame a local device wants sent (frameSend)."""
        self._outbound.append(frame)
        self.posted_outbound += 1
        self.wake()

    # -- draining -----------------------------------------------------------
    # Test before popping: most takes miss (the loop drains after every
    # dispatch), and a raised-and-caught ``IndexError`` costs ten times
    # the truthiness test.  Safe because this is the queues' one consumer.
    def take_inbound(self) -> Frame | None:
        return self._inbound.popleft() if self._inbound else None

    def take_outbound(self) -> Frame | None:
        return self._outbound.popleft() if self._outbound else None

    def wait_for_work(self, timeout: float | None = None) -> bool:
        """Park the consumer until there is work, a ring or ``timeout``
        seconds pass (``None``: no timer at all).  False on timeout.

        Single consumer by contract — the loop of control.  No wake-up
        can be missed, so the timeout is a timer deadline, nothing else.
        """
        self.parking = True  # announce, then look, then block
        try:
            if self._inbound or self._outbound:
                return True
            return self._bell.acquire(True, -1 if timeout is None else timeout)
        finally:
            self.parking = False

    # -- introspection ------------------------------------------------------
    @property
    def idle(self) -> bool:
        return not self._inbound and not self._outbound
