"""Per-device dispatch tables and functors.

Paper §3.2: *"Each device module in this concept is an active object
that contains a local dispatcher ... It is the sole responsibility of
each device to know what it shall do with the incoming message."* and
§4: *"There exist multiple dispatch tables for all the device class
instances, but the executive performs the dispatching."*

A :class:`DispatchTable` maps a message discriminator — the function
code, plus the ``XFunctionCode`` for private messages — to a
:class:`Functor`.  The executive reaches the user code in two steps
that mirror the paper's whitebox stages: :meth:`Functor.prepare` is the
*upcall of functor* (count the call, hand back the bound handler) and
calling that handler with the frame is the *application* (the user
code).
"""

from __future__ import annotations

from typing import Callable

from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.function_codes import PRIVATE, function_name

Handler = Callable[[Frame], object]

#: Key type: (function_code, xfunction_code); xfunction is 0 for
#: non-private functions.
DispatchKey = tuple[int, int]


class DispatchError(I2OError):
    """No handler bound and no default available."""


class Functor:
    """A bound message handler with an explicit upcall step."""

    __slots__ = ("handler", "key", "calls")

    def __init__(self, handler: Handler, key: DispatchKey) -> None:
        if not callable(handler):
            raise I2OError(f"handler for {key} is not callable")
        self.handler = handler
        self.key = key
        self.calls = 0

    def prepare(self, frame: Frame) -> Handler:
        """The upcall: count it and return the handler; the caller
        applies it to the frame.  The key is not compared again:
        :meth:`DispatchTable.lookup` found this functor by it."""
        self.calls += 1
        return self.handler


class DispatchTable:
    """The local dispatcher of one device class instance.

    ``default`` (if set) catches any message without an exact binding —
    this implements the paper's *"The system can provide default
    procedures if for a given event no code is supplied.  This is also
    a way to come to a homogeneous view of software components with
    fault tolerant behaviour."*
    """

    def __init__(self, owner: str = "") -> None:
        self.owner = owner
        self._table: dict[DispatchKey, Functor] = {}
        self.default: Functor | None = None

    @staticmethod
    def key_for(function: int, xfunction: int = 0) -> DispatchKey:
        if function != PRIVATE and xfunction != 0:
            raise I2OError(
                f"xfunction only discriminates private messages, "
                f"got {function_name(function)} with xfunc 0x{xfunction:04X}"
            )
        return (function, xfunction if function == PRIVATE else 0)

    def bind(self, function: int, handler: Handler, xfunction: int = 0) -> Functor:
        """Associate ``handler`` with a message type (configuration-time
        association of code with events, paper §3.2).  Rebinding replaces
        the previous functor — that is how code download upgrades a
        running device."""
        key = self.key_for(function, xfunction)
        functor = Functor(handler, key)
        self._table[key] = functor
        return functor

    def bind_default(self, handler: Handler) -> Functor:
        self.default = Functor(handler, (-1, -1))
        return self.default

    def lookup(self, frame: Frame) -> Functor:
        """Demultiplex a frame to its functor (whitebox stage
        ``demultiplex``): the one bound to exactly the frame's key,
        else the default."""
        function = frame._function  # the decoded slots, read directly
        functor = self._table.get(
            (function, frame._xfunction if function == PRIVATE else 0)
        )
        if functor is not None:
            return functor
        if self.default is not None:
            return self.default
        raise DispatchError(
            f"{self.owner or 'device'}: no handler for "
            f"{function_name(frame.function)}/0x{frame.xfunction:04X} "
            "and no default bound"
        )

    def __len__(self) -> int:
        return len(self._table)
