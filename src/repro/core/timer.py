"""The I2O core timer facility.

Paper §3.2: *"Even interrupts or timer expirations trigger messages
that are sent to device modules"* — a timer does not call back into
user code directly; on expiry the service builds an
``EXEC_TIMER_EXPIRED`` frame addressed to the owning device and posts
it through the ordinary inbound queue, so timer handling obeys the same
priority scheduling and probing as every other event.  The watchdog
(paper §4) is built on this facility.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING

from repro.flightrec.records import EV_TIMER_FIRE
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.function_codes import EXEC_TIMER_EXPIRED
from repro.i2o.tid import EXECUTIVE_TID, Tid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executive import Executive

#: Timer frames are urgent: they carry watchdog expirations.
TIMER_PRIORITY = 1


class TimerService:
    """Deadline heap polled by the executive loop."""

    def __init__(self, executive: "Executive") -> None:
        self._executive = executive
        self._heap: list[tuple[int, int]] = []  # (deadline_ns, timer_id)
        self._live: dict[int, tuple[Tid, int, int | None]] = {}
        # timer_id -> (owner, context, period_ns or None)
        self._ids = itertools.count(1)
        self.fired = 0

    def __len__(self) -> int:
        return len(self._live)

    def start(
        self,
        *,
        owner: Tid,
        delay_ns: int,
        context: int = 0,
        period_ns: int | None = None,
    ) -> int:
        """Arm a one-shot (or periodic) timer owned by device ``owner``."""
        if delay_ns < 0:
            raise I2OError(f"negative timer delay {delay_ns}")
        if period_ns is not None and period_ns <= 0:
            raise I2OError(f"period must be positive, got {period_ns}")
        timer_id = next(self._ids)
        deadline = self._executive.clock.now_ns() + delay_ns
        self._live[timer_id] = (owner, context, period_ns)
        heapq.heappush(self._heap, (deadline, timer_id))
        # A loop asleep sized its wait without this deadline.
        self._executive.msgi.wake()
        return timer_id

    def cancel(self, timer_id: int) -> bool:
        """Disarm; returns False if the timer already fired or never was."""
        return self._live.pop(timer_id, None) is not None

    def cancel_owned(self, owner: Tid) -> int:
        """Disarm every timer owned by ``owner``; returns the count.

        Called on device uninstall so a removed device cannot keep
        receiving expiry frames (which would be dead-lettered)."""
        doomed = [
            timer_id for timer_id, (tid, _, _) in self._live.items()
            if tid == owner
        ]
        for timer_id in doomed:
            del self._live[timer_id]
        return len(doomed)

    def cancel_all(self) -> int:
        """Disarm every timer; returns the count.

        The crash-teardown primitive (``Executive.hard_stop``): a dead
        node's deadlines must not keep generating expiry frames."""
        count = len(self._live)
        self._live.clear()
        self._heap.clear()
        return count

    def next_deadline_ns(self) -> int | None:
        """Earliest live deadline (lets a sleeping loop size its wait)."""
        while self._heap and self._heap[0][1] not in self._live:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def poll(self, now_ns: int | None = None) -> int:
        """Fire every timer whose deadline has passed; returns count."""
        if now_ns is None:
            now_ns = self._executive.clock.now_ns()
        count = 0
        fr = self._executive.flightrec
        while self._heap and self._heap[0][0] <= now_ns:
            deadline, timer_id = heapq.heappop(self._heap)
            entry = self._live.pop(timer_id, None)
            if entry is None:
                continue  # cancelled
            owner, context, period_ns = entry
            if fr is not None:
                fr.record(EV_TIMER_FIRE, timer_id, int(owner), context)
            self._post_expiry(owner, timer_id, context)
            count += 1
            self.fired += 1
            if period_ns is not None:
                self._live[timer_id] = (owner, context, period_ns)
                heapq.heappush(self._heap, (deadline + period_ns, timer_id))
        return count

    def _post_expiry(self, owner: Tid, timer_id: int, context: int) -> None:
        frame = Frame.build(
            target=owner,
            initiator=EXECUTIVE_TID,
            function=EXEC_TIMER_EXPIRED,
            priority=TIMER_PRIORITY,
            transaction_context=context,
            initiator_context=timer_id,
        )
        self._executive.post_inbound(frame)
