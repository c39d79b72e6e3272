"""Event queue, virtual clock and generator-based processes.

The kernel follows the classic event-list design: a binary heap of
``(timestamp_ns, sequence, callback)`` entries.  The monotonically
increasing sequence number makes event ordering a *total* order, so a
simulation run is reproducible bit-for-bit regardless of hash seeds or
dict iteration order.

Two programming styles are supported and freely mixed:

* **callback style** — ``sim.after(1_000, fn)`` schedules ``fn`` to run
  1 µs of virtual time from now;
* **process style** — a generator wrapped in :class:`Process` that
  yields :func:`delay` objects or :class:`Event` objects it wants to
  wait for.  This keeps sequential hardware models (a NIC DMA engine, a
  PCI bus arbiter) readable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable


class SimError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, dead process...)."""


@dataclass(frozen=True)
class delay:  # noqa: N801 - reads as a keyword in process bodies
    """Yielded by a process to suspend itself for ``ns`` virtual nanoseconds."""

    ns: int

    def __post_init__(self) -> None:
        if self.ns < 0:
            raise SimError(f"negative delay: {self.ns}")


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; :meth:`succeed` fires it, delivering an
    optional value to every waiter.  Waiting on an already fired event
    resumes the waiter immediately (at the current virtual time).
    """

    __slots__ = ("_sim", "_fired", "_value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._fired = False
        self._value: Any = None
        self._waiters: list[Callable[[Any], None]] = []
        self.name = name

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimError(f"event {self.name!r} has not fired")
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Fire the event, waking all waiters at the current time."""
        if self._fired:
            raise SimError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            self._sim.at(self._sim.now, lambda cb=cb: cb(self._value))

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        """Run ``cb(value)`` when the event fires (immediately if fired)."""
        if self._fired:
            self._sim.at(self._sim.now, lambda: cb(self._value))
        else:
            self._waiters.append(cb)


ProcessBody = Generator[Any, Any, Any]


class Process:
    """A generator coroutine driven by the simulator.

    The generator may yield:

    * :func:`delay` — resume after that much virtual time;
    * :class:`Event` — resume when it fires, receiving its value;
    * another :class:`Process` — resume when it terminates, receiving
      its return value.

    When the generator returns, :attr:`done` fires with the return
    value; other processes can wait on it.
    """

    __slots__ = ("_sim", "_gen", "done", "name")

    def __init__(self, sim: "Simulator", gen: ProcessBody, name: str = "") -> None:
        if not isinstance(gen, Generator):
            raise SimError(f"process body must be a generator, got {type(gen)!r}")
        self._sim = sim
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Event(sim, name=f"{self.name}.done")
        sim.at(sim.now, lambda: self._step(None))

    def _step(self, send_value: Any) -> None:
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        if isinstance(yielded, delay):
            self._sim.after(yielded.ns, lambda: self._step(None))
        elif isinstance(yielded, Event):
            yielded.add_callback(self._step)
        elif isinstance(yielded, Process):
            yielded.done.add_callback(self._step)
        else:
            raise SimError(
                f"process {self.name!r} yielded unsupported {type(yielded).__name__}"
            )


@dataclass(order=True)
class _Entry:
    when: int
    seq: int
    fn: Callable[[], None] = field(compare=False)
    cancelled: bool = field(compare=False, default=False)


class Handle:
    """Cancellation handle returned by :meth:`Simulator.at`/`after`."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _Entry) -> None:
        self._entry = entry

    def cancel(self) -> None:
        self._entry.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled

    @property
    def when(self) -> int:
        return self._entry.when


class Simulator:
    """The event loop: a virtual clock plus a timestamp-ordered queue."""

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._queue: list[_Entry] = []
        self._running = False
        self.events_executed: int = 0

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    # -- scheduling -------------------------------------------------------
    def at(self, when: int, fn: Callable[[], None]) -> Handle:
        """Schedule ``fn`` at absolute virtual time ``when`` (ns)."""
        if when < self._now:
            raise SimError(f"cannot schedule at {when} < now {self._now}")
        entry = _Entry(when, self._seq, fn)
        self._seq += 1
        heapq.heappush(self._queue, entry)
        return Handle(entry)

    def after(self, dt: int, fn: Callable[[], None]) -> Handle:
        """Schedule ``fn`` ``dt`` nanoseconds of virtual time from now."""
        if dt < 0:
            raise SimError(f"negative dt: {dt}")
        return self.at(self._now + dt, fn)

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def process(self, gen: ProcessBody, name: str = "") -> Process:
        """Start a generator as a simulation process."""
        return Process(self, gen, name)

    def timeout(self, ns: int) -> Event:
        """An event that fires ``ns`` from now (for use with ``any_of`` etc.)."""
        ev = Event(self, name=f"timeout+{ns}")
        self.after(ns, ev.succeed)
        return ev

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event firing when the first of ``events`` fires.

        The value is the ``(index, value)`` pair of the winner.
        """
        combined = Event(self, name="any_of")

        def arm(index: int, ev: Event) -> None:
            def on_fire(value: Any) -> None:
                if not combined.fired:
                    combined.succeed((index, value))

            ev.add_callback(on_fire)

        for i, ev in enumerate(events):
            arm(i, ev)
        return combined

    # -- execution --------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next event.  Returns False if queue empty."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.cancelled:
                continue
            self._now = entry.when
            self.events_executed += 1
            entry.fn()
            return True
        return False

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run until the queue drains, ``until`` (ns) passes, or the
        event budget is exhausted.  Returns the number of events executed.

        When stopping at ``until``, the clock is advanced to exactly
        ``until`` so back-to-back ``run(until=...)`` calls tile time.
        """
        if self._running:
            raise SimError("re-entrant run()")
        self._running = True
        executed = 0
        try:
            while self._queue:
                if max_events is not None and executed >= max_events:
                    break
                head = self._queue[0]
                if head.cancelled:
                    heapq.heappop(self._queue)
                    continue
                if until is not None and head.when > until:
                    break
                if self.step():
                    executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return executed
