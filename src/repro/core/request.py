"""Request/reply correlation: the one way to ask a node a question.

Paper figure 5 gives every frame an ``InitiatorContext`` "returned
unchanged in reply", so a request/reply call is a framework facility,
not something each client rebuilds.  DESIGN §5 ("Request/reply
correlation") states the contract and lists the devices built on it.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Hashable

from repro.core.device import Listener
from repro.i2o.errors import I2OError
from repro.i2o.frame import DEFAULT_PRIORITY, Frame
from repro.i2o.function_codes import PRIVATE
from repro.i2o.tid import Tid

#: Wall-clock bound on a wait whose executive runs in its own loop
#: thread (pump counts mean nothing there), and how long such a wait
#: parks between calls of its ``pump``, when it has one.
THREADED_WAIT_S = 5.0
PUMP_SLICE_S = 0.001


class Requester(Listener):
    """A device that asks questions and correlates the answers.

    A subclass binds :meth:`handle_reply` for every code it expects
    replies on.  ``pump`` steps the caller's other executives while
    :meth:`wait_until` waits; ``max_pumps`` bounds that wait so a dead
    peer cannot hang it, and a timed-out wait raises ``error_type``.
    """

    max_pumps = 100_000
    error_type: type[I2OError] = I2OError

    def __init__(
        self, name: str = "", *, pump: Callable[[], None] | None = None
    ) -> None:
        super().__init__(name)
        self.pump = pump
        self._contexts = itertools.count(1)
        self._pending: dict[int, Callable[[Frame], None]] = {}
        self._slots: dict[Hashable, int] = {}
        #: replies whose context was unknown: abandoned after a
        #: timeout, superseded in their slot, or never ours
        self.late_replies = 0
        #: rung after every reply callback: what a waiter on another
        #: thread than the loop of control parks on (:meth:`wait_until`)
        self._replied = threading.Event()

    @property
    def outstanding(self) -> int:
        """Requests still waiting for their reply."""
        return len(self._pending)

    def request(
        self,
        target: Tid,
        payload: bytes | bytearray | memoryview = b"",
        *,
        on_reply: Callable[[Frame], None],
        writer: Callable[[memoryview], None] | None = None,
        size: int = 0,
        function: int = PRIVATE,
        xfunction: int = 0,
        priority: int = DEFAULT_PRIORITY,
        slot: Hashable | None = None,
    ) -> int:
        """Post one request and return its fresh context;
        ``on_reply(frame)`` runs in the dispatch of the reply, failure
        replies included.  ``writer`` builds the ``size``-byte payload
        in the loaned frame (:meth:`Listener.send_into`).  A ``slot``
        holds one outstanding request: asking again abandons the
        unanswered one, so polling a silent peer stays bounded.
        """
        context = next(self._contexts)
        if slot is not None:
            self.abandon(self._slots.get(slot, 0))
            self._slots[slot] = context
        # Registered before the post: a started executive may dispatch
        # the reply before ``_post`` returns.
        self._pending[context] = on_reply
        try:
            self._post(
                target, function, xfunction, priority, 0, 0, 0, context,
                size or len(payload), payload, writer,
            )
        except BaseException:
            self.abandon(context)
            raise
        return context

    def abandon(self, context: int) -> None:
        """Stop waiting for ``context``; a reply that still comes is
        counted in ``late_replies`` and dropped."""
        self._pending.pop(context, None)

    def handle_reply(self, frame: Frame) -> None:
        """The one reply handler: pop the context, run its callback."""
        if not frame.is_reply:
            self.on_unsolicited(frame)
            return
        callback = self._pending.pop(frame.initiator_context, None)
        if callback is None:
            self.late_replies += 1
            return
        callback(frame)
        self._replied.set()

    def on_unsolicited(self, frame: Frame) -> None:
        """Override: a *request* arrived on a code bound for replies.
        The default is the standard failure reply (paper §3.2)."""
        self.reply(frame, fail=True)

    def wait_until(
        self, done: Callable[[], object], *, context: int = 0,
        what: str = "request",
    ) -> None:
        """The one wait loop: until ``done()``, call ``pump`` and step
        this device's executive, at most ``max_pumps`` times.  An
        executive stepped by its own live loop thread must not be
        stepped from here (thread affinity): the caller parks on the
        reply ring instead (a ``pump`` wakes it every ``PUMP_SLICE_S``),
        at most ``THREADED_WAIT_S``.  On timeout ``context`` is
        abandoned and ``error_type`` raised.
        """
        exe = self._require_live()
        if exe.stepped_elsewhere():
            bound = f"{THREADED_WAIT_S} s"
            deadline = time.monotonic() + THREADED_WAIT_S
            # Every reply-driven ``done`` turns true inside a callback,
            # which runs before the ring; the check follows the clear.
            while not done() and (left := deadline - time.monotonic()) > 0:
                if self.pump is not None:
                    self.pump()
                    left = min(left, PUMP_SLICE_S)
                self._replied.wait(left)
                self._replied.clear()
        else:
            bound = f"{self.max_pumps} pumps"
            for _ in range(self.max_pumps):
                if done():
                    break
                if self.pump is not None:
                    self.pump()
                exe.step()
        if not done():
            self.abandon(context)
            raise self.error_type(f"no reply to {what} after {bound}")

    def ask(
        self,
        target: Tid,
        payload: bytes | bytearray | memoryview = b"",
        *,
        function: int = PRIVATE,
        xfunction: int = 0,
        priority: int = DEFAULT_PRIORITY,
    ) -> tuple[bool, bytes]:
        """Synchronous request: ``(failed, reply payload)``."""
        box: list[tuple[bool, bytes]] = []
        context = self.request(
            target, payload, function=function, xfunction=xfunction,
            priority=priority,
            on_reply=lambda f: box.append((f.is_failure, bytes(f.payload))),
        )
        self.wait_until(
            box.__len__, context=context,
            what=f"message 0x{function:02X}/0x{xfunction:04X} to TiD {target}",
        )
        return box[0]

    def export_counters(self) -> dict[str, object]:
        return {"late_replies": self.late_replies}
