"""Crash-point injection for durability testing.

The journal's write-ahead discipline (``repro.durable``) is only as
good as the crash windows it survives.  A journaled reliable endpoint
moves a send through four observable steps — accept
(``send_reliable``), journal write and wire transmit (both in
``commit()``, one group commit per batch), ack retirement — and each
gap between them (plus the one between the retirement and the pending
table's pop) is a distinct failure mode:

* ``pre-journal-append`` — the process dies inside ``send_reliable``,
  before the message is accepted.  The caller's exception is the
  (explicit, tested) diagnostic.  Nothing replays.
* ``accepted-pre-commit`` — accepted (``send_reliable`` returned its
  seq) but never committed: nothing on disk, nothing on the wire.
  Nothing replays, and the restarted endpoint reuses the seq for its
  next send, which the receiver delivers — it never saw the first.
  This is the group commit's loss window: only sends no peer has seen
  die in it.
* ``post-append-pre-transmit`` — journaled but never on the wire.
  Recovery must replay it; the receiver sees it exactly once.
* ``post-transmit-pre-ack-record`` — delivered and acked on the wire,
  but the ack was never retired in the journal.  Recovery replays a
  duplicate of every seq the ack frame named; the receiver's dedup
  window must absorb them.
* ``post-ack-record-pre-pop`` — retired in the journal, still in the
  dead process's pending table.  Nothing replays; nothing is owed.

``pre-journal-append`` is entered once per message; the two commit
windows once per commit, however many sends it carries; the two ack
windows once per acknowledgement frame (the endpoint retires a frame's
seqs with one ACK record).  A hit count (``at=``) therefore counts
messages, commits or ack frames, by window.

:class:`CrashInjector` arms one of those points through the endpoint's
``crash_hook`` and raises :class:`ExecutiveCrashed` when it fires.
``ExecutiveCrashed`` derives from :class:`BaseException` deliberately:
the executive's dispatch loop catches ``Exception`` to contain faulty
device handlers (paper §3.2), and a simulated machine crash must not be
containable — it has to unwind the whole test the way ``kill -9``
unwinds a process.  Pair it with :meth:`Executive.hard_stop` to model
the death, then build a fresh executive over the same journal to model
the restart.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.core.reliable import (
    CRASH_ACCEPTED,
    CRASH_POST_ACK_RECORD,
    CRASH_POST_APPEND,
    CRASH_PRE_ACK_RECORD,
    CRASH_PRE_APPEND,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.reliable import ReliableEndpoint

#: Every named crash window, in commit order.
CRASH_POINTS: tuple[str, ...] = (
    CRASH_PRE_APPEND,
    CRASH_ACCEPTED,
    CRASH_POST_APPEND,
    CRASH_PRE_ACK_RECORD,
    CRASH_POST_ACK_RECORD,
)


class ExecutiveCrashed(BaseException):
    """A simulated machine crash at a named crash point.

    Derives from ``BaseException`` (not ``Exception``) so the
    executive's per-dispatch fault containment cannot absorb it: a
    crash takes down the node, it is not a handler bug to quarantine.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


class CrashInjector:
    """Callable crash hook: raise on the ``at``-th hit of ``point``.

    Counts every hit of its point in ``hits`` and records whether it
    fired in ``fired``, so tests can assert both that the crash
    happened and exactly when.
    """

    def __init__(self, point: str, *, at: int = 1) -> None:
        if point not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {point!r}; expected one of {CRASH_POINTS}"
            )
        if at < 1:
            raise ValueError(f"'at' must be >= 1, got {at}")
        self.point = point
        self.at = at
        self.hits = 0
        self.fired = False

    def __call__(self, point: str) -> None:
        if point != self.point:
            return
        self.hits += 1
        if self.hits == self.at:
            self.fired = True
            raise ExecutiveCrashed(point)


@contextmanager
def crash_at(
    endpoint: "ReliableEndpoint", point: str, *, at: int = 1
) -> Iterator[CrashInjector]:
    """Arm ``endpoint`` to crash at the ``at``-th hit of ``point``.

    Restores any previously installed hook on exit, so nested or
    sequential injections compose::

        tx.send_reliable(peer, payload)
        with crash_at(tx, CRASH_POST_APPEND) as injector:
            with pytest.raises(ExecutiveCrashed):
                tx.commit()
        assert injector.fired
    """
    injector = CrashInjector(point, at=at)
    previous = endpoint.crash_hook
    endpoint.crash_hook = injector
    try:
        yield injector
    finally:
        endpoint.crash_hook = previous
