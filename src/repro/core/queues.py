"""The messaging instance: inbound and outbound frame queues.

Paper figure 2 / §3.5: *"All communication travels through the inbound
and outbound queues of the local node."*  Devices post requests and
replies to the **outbound** queue; the executive routes each outbound
frame either to a local device (via the scheduler) or to a peer
transport.  Peer transports deposit received frames into the
**inbound** queue, from which the executive dispatches.

The queues are thread-safe because task-mode peer transports run in
their own threads (paper §4) while the dispatch loop drains them.  An
optional ``on_work`` callback lets the simulation plane (or a sleeping
native loop) wake up when work arrives.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable

from repro.i2o.frame import Frame


class MessagingInstance:
    """Inbound + outbound FIFO pair with a work notification hook.

    ``deque.append``/``popleft`` are atomic under CPython's GIL, so the
    queues themselves need no lock — this sits on the per-message hot
    path.  The condition variable is only touched when a thread has
    actually parked in :meth:`wait_for_work` (tracked by a waiter
    count), so single-threaded use never pays for it.
    """

    def __init__(self, on_work: Callable[[], None] | None = None) -> None:
        self._inbound: deque[Frame] = deque()
        self._outbound: deque[Frame] = deque()
        self._work = threading.Condition()
        self._waiters = 0
        self.on_work = on_work
        self.posted_inbound = 0
        self.posted_outbound = 0

    def _notify(self) -> None:
        if self._waiters:
            with self._work:
                self._work.notify_all()
        if self.on_work is not None:
            self.on_work()

    # -- posting ------------------------------------------------------------
    def post_inbound(self, frame: Frame) -> None:
        """Deposit a frame arriving from the wire (or local loopback)."""
        self._inbound.append(frame)
        self.posted_inbound += 1
        self._notify()

    def post_outbound(self, frame: Frame) -> None:
        """Deposit a frame a local device wants sent (frameSend)."""
        self._outbound.append(frame)
        self.posted_outbound += 1
        self._notify()

    # -- draining -----------------------------------------------------------
    def take_inbound(self) -> Frame | None:
        try:
            return self._inbound.popleft()
        except IndexError:
            return None

    def take_outbound(self) -> Frame | None:
        try:
            return self._outbound.popleft()
        except IndexError:
            return None

    def wait_for_work(self, timeout: float | None = None) -> bool:
        """Block until either queue is non-empty (native thread mode).

        Callers must pass a bounded ``timeout``: the lock-free posting
        fast path can miss a waiter that is *just* parking, and the
        timeout converts that rare race into one bounded poll interval
        instead of a hang.
        """
        with self._work:
            if self._inbound or self._outbound:
                return True
            self._waiters += 1
            try:
                return self._work.wait(timeout)
            finally:
                self._waiters -= 1

    # -- introspection ------------------------------------------------------
    @property
    def inbound_depth(self) -> int:
        return len(self._inbound)

    @property
    def idle(self) -> bool:
        return not self._inbound and not self._outbound
