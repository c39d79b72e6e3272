"""The dispatch-observer seam: one contract for everything that watches
the executive dispatch a frame (DESIGN §8, "Dispatch observers").

Per frame the executive calls ``dispatch_begin(rec)`` before the upcall
and ``dispatch_end(rec)`` exactly once after it, on every exit, in
attach order.  ``rec`` is a :class:`DispatchRecord` filled *before* the
upcall and lent for that one pair; observers never see the frame, which
the handler may free, and copy what they keep past ``dispatch_end``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executive import Executive
    from repro.i2o.frame import Frame

#: ``DispatchRecord.outcome`` codes, set by the executive before ``end``.
OUTCOME_OK = 0             # handler returned
OUTCOME_HANDLER_ERROR = 1  # handler raised; initiator got a failure reply
OUTCOME_WATCHDOG = 2       # handler overran its budget; device quarantined
OUTCOME_VANISHED = 3       # target uninstalled between queueing and dispatch
OUTCOME_ABORTED = 4        # a BaseException is taking the loop down


class DispatchRecord:
    """What observers get instead of the frame, lent for one dispatch."""

    __slots__ = (
        "node", "target", "function", "xfunction", "context",
        "enqueued_ns", "start_ns", "end_ns", "outcome", "released",
    )

    def __init__(
        self, node: int, frame: "Frame | None" = None, start_ns: int = 0
    ) -> None:
        self.node = node
        if frame is not None:
            self.fill(frame, start_ns)

    # Refilled for each outermost dispatch; returns the record.
    def fill(self, frame: "Frame", start_ns: int) -> "DispatchRecord":
        # The decoded header slots, read directly: one per dispatch.
        self.target = frame._target
        self.function = frame._function
        self.xfunction = frame._xfunction
        #: ``context``: the ``transaction_context`` (a trace id when tagged)
        self.context = frame._transaction_context
        #: when the frame entered the scheduler (``None`` = not noted)
        self.enqueued_ns = frame.trace_mark
        frame.trace_mark = None
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.outcome = OUTCOME_OK
        #: set with ``outcome``: the loop released the frame at the end
        #: of the dispatch, a frameFree no other fact records
        self.released = False
        return self


class DispatchObserver:
    """Base for dispatch observers; override what you need."""

    __slots__ = ()

    #: names the observer in the one-per-class refusal
    label = "dispatch observer"

    def on_attach(self, exe: "Executive") -> None:
        """Adopt the executive: node id, clock, ``exe.<ref>``."""

    def on_detach(self, exe: "Executive") -> None:
        """Undo :meth:`on_attach`."""

    def export_counters(self) -> dict[str, object]:
        """The observer's node metric series, read while attached."""
        return {}

    def dispatch_begin(self, rec: DispatchRecord) -> None:
        """A frame left the scheduler; its handler runs next."""

    def dispatch_end(self, rec: DispatchRecord) -> None:
        """The dispatch is over; ``rec.end_ns``/``rec.outcome`` and
        ``rec.released`` are set."""
