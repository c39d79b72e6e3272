"""The typed message registry: symbolic names for I2O private codes.

A :class:`MessageType` binds one symbolic name ("daq.trigger") to the
I2O addressing triple that actually travels in the frame header —
``(function, xfunction, organization)`` — plus the *delivery contract*
the dataflow layer enforces:

* ``mode`` — how many consumers one ``emit`` reaches:

  - ``"one"``     exactly one consumer may exist (unicast); more than
                  one is the *ambiguous fan-in* diagnostic;
  - ``"fanout"``  every consumer receives a copy;
  - ``"keyed"``   consumers are addressed by their ``dataflow_key``
                  (``emit(..., key=...)``); duplicate keys are
                  ambiguous fan-in.

* ``feedback`` — marks an intentional back-edge (acknowledgement /
  completion traffic flowing against the data direction, like the
  event builder's EVENT_DONE).  Feedback edges are routed normally but
  exempted from the cycle diagnostic: the forward dataflow must be a
  DAG, the control loop that closes it is declared, not accidental.

* ``on_saturation`` — what ``emit`` does when a backpressured edge is
  out of credits: ``"park"`` the payload in the emitter's bounded
  outbox until credits return, or ``"shed"`` (drop and count).

Registration is module-import time (device protocol modules call
:func:`message_type` next to their XF_* constants) and idempotent for
identical declarations; a *conflicting* re-registration raises — two
meanings for one name would make the DAG lie.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.i2o.errors import I2OError
from repro.i2o.frame import DEFAULT_PRIORITY, NUM_PRIORITIES
from repro.i2o.function_codes import PRIVATE

MODES = ("one", "fanout", "keyed")
SATURATION_POLICIES = ("park", "shed")


@dataclass(frozen=True)
class MessageType:
    """One typed message: symbolic name + wire addressing + contract."""

    name: str
    xfunction: int
    organization: int = 0
    function: int = PRIVATE
    mode: str = "one"
    priority: int = DEFAULT_PRIORITY
    feedback: bool = False
    on_saturation: str = "park"

    def __post_init__(self) -> None:
        if not self.name:
            raise I2OError("message type needs a non-empty name")
        if self.mode not in MODES:
            raise I2OError(
                f"message type {self.name!r}: mode {self.mode!r} "
                f"is not one of {MODES}"
            )
        if self.on_saturation not in SATURATION_POLICIES:
            raise I2OError(
                f"message type {self.name!r}: on_saturation "
                f"{self.on_saturation!r} is not one of {SATURATION_POLICIES}"
            )
        if not 0 <= self.priority < NUM_PRIORITIES:
            raise I2OError(
                f"message type {self.name!r}: priority {self.priority} "
                f"out of range"
            )

    @property
    def code(self) -> tuple[int, int, int]:
        """The wire identity: (function, xfunction, organization)."""
        return (self.function, self.xfunction, self.organization)


#: name -> MessageType; the process-wide registry.
_REGISTRY: dict[str, MessageType] = {}


def message_type(
    name: str,
    xfunction: int,
    *,
    organization: int = 0,
    function: int = PRIVATE,
    mode: str = "one",
    priority: int = DEFAULT_PRIORITY,
    feedback: bool = False,
    on_saturation: str = "park",
) -> MessageType:
    """Register (or re-fetch) a message type by name.

    Idempotent for an identical declaration; a conflicting one raises.
    """
    mtype = MessageType(
        name=name, xfunction=xfunction, organization=organization,
        function=function, mode=mode, priority=priority, feedback=feedback,
        on_saturation=on_saturation,
    )
    existing = _REGISTRY.get(name)
    if existing is not None:
        if existing != mtype:
            raise I2OError(
                f"message type {name!r} already registered with a "
                f"different contract: {existing} != {mtype}"
            )
        return existing
    _REGISTRY[name] = mtype
    return mtype


def lookup(name: str) -> MessageType:
    """The registered type, or an error naming the known ones."""
    mtype = _REGISTRY.get(name)
    if mtype is None:
        raise I2OError(
            f"unknown message type {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        )
    return mtype


def registered() -> tuple[MessageType, ...]:
    """Every registered type, name-ordered (for reports)."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def _unregister(name: str) -> None:
    """Test hook: forget a type (never used on the hot path)."""
    _REGISTRY.pop(name, None)
