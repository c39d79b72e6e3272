"""The I2O dispatch scheduler: seven priority FIFOs, round-robin devices.

Paper §4: *"For scheduling the dispatching of messages we follow the
algorithm given in the I2O specification.  There exist seven priority
levels and for each one the messages are scheduled to a FIFO.  All
devices are then dispatched in round-robin manner."*

Concretely: within a priority level, frames are grouped per target
device, and the scheduler serves one frame from each non-empty device
queue in rotation.  A higher (numerically lower) priority level always
pre-empts a lower one; within a level no device can starve while
another is served twice (fairness is property-tested).
"""

from __future__ import annotations

from collections import deque

from repro.i2o.errors import I2OError
from repro.i2o.frame import NUM_PRIORITIES, Frame
from repro.i2o.tid import Tid


class PriorityScheduler:
    """Seven priority levels × per-device FIFOs with round-robin service."""

    def __init__(self) -> None:
        # Per priority: the round-robin ring of the devices whose FIFO is
        # non-empty, in service order, and every device's FIFO, kept
        # alive while the device is (a ping-pong would otherwise build
        # and drop one per message).  Serving a device pops it off the
        # front of the ring and re-appends it if frames remain.
        self._levels: list[tuple[deque[Tid], dict[Tid, deque[Frame]]]] = [
            (deque(), {}) for _ in range(NUM_PRIORITIES)
        ]
        self._depth = 0
        self.pushed = 0
        self.popped = 0

    def __len__(self) -> int:
        return self._depth

    @property
    def empty(self) -> bool:
        return self._depth == 0

    def push(self, frame: Frame) -> None:
        # The decoded header slots, read directly (once per message).
        priority = frame._priority
        if not 0 <= priority < NUM_PRIORITIES:
            raise I2OError(f"frame priority {priority} out of range")
        ring, queues = self._levels[priority]
        target = frame._target
        queue = queues.get(target)
        if queue is None:
            queue = queues[target] = deque()
        if not queue:  # the device joins the back of the ring
            ring.append(target)
        queue.append(frame)
        self._depth += 1
        self.pushed += 1

    def pop(self) -> Frame | None:
        """Next frame by (priority, round-robin device) order, or None."""
        if self._depth == 0:
            return None
        for ring, queues in self._levels:
            if not ring:
                continue
            # Serve the device at the front of the ring.
            tid = ring.popleft()
            queue = queues[tid]
            frame = queue.popleft()
            if queue:
                ring.append(tid)  # back of the ring: round-robin
            self._depth -= 1
            self.popped += 1
            return frame
        raise I2OError("scheduler depth/level bookkeeping out of sync")

    def depth_of(self, priority: int) -> int:
        if not 0 <= priority < NUM_PRIORITIES:
            raise I2OError(f"priority {priority} out of range")
        return sum(len(q) for q in self._levels[priority][1].values())

    def pending_devices(self, priority: int) -> list[Tid]:
        """Devices with queued frames at ``priority``, in service order."""
        return list(self._levels[priority][0])

    def drop_device(self, tid: Tid) -> list[Frame]:
        """Remove and return all frames queued for ``tid`` (device
        destroyed / quarantined by the watchdog)."""
        dropped: list[Frame] = []
        for ring, queues in self._levels:
            queue = queues.pop(tid, None)
            if queue:
                ring.remove(tid)
                dropped.extend(queue)
        self._depth -= len(dropped)
        return dropped
