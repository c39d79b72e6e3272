"""Interrupts as I2O messages.

Paper §3.2: *"Even interrupts or timer expirations trigger messages
that are sent to device modules, if they have registered to listen to
such an event."*  Timers are handled by :mod:`repro.core.timer`; this
module covers the interrupt half:

* **native plane** — OS signals (SIGUSR1, SIGTERM, ...) are translated
  into ``EXEC_INTERRUPT`` frames posted to the inbound queue, so a
  device handles Ctrl-C-style events with the same dispatch machinery
  (and priority!) as any message;
* **any plane** — :meth:`InterruptController.raise_irq` injects a
  software interrupt directly, which is what hardware models use.

The frame carries the interrupt number in ``transaction_context``.
"""

from __future__ import annotations

import signal
import threading
from typing import TYPE_CHECKING

from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.function_codes import EXEC_INTERRUPT
from repro.i2o.tid import EXECUTIVE_TID, Tid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executive import Executive

#: Interrupts pre-empt everything, including timers.
INTERRUPT_PRIORITY = 0


class InterruptController:
    """Routes interrupt events to registered device TiDs."""

    def __init__(self, executive: "Executive") -> None:
        self._executive = executive
        self._listeners: dict[int, list[Tid]] = {}
        self._signal_tokens: dict[int, object] = {}
        self.raised = 0

    # -- registration -------------------------------------------------------
    def register(self, irq: int, tid: Tid) -> None:
        """Deliver interrupt ``irq`` to device ``tid`` (fan-out allowed)."""
        listeners = self._listeners.setdefault(irq, [])
        if tid not in listeners:
            listeners.append(tid)

    def unregister(self, irq: int, tid: Tid) -> None:
        listeners = self._listeners.get(irq, [])
        if tid in listeners:
            listeners.remove(tid)

    # -- delivery ---------------------------------------------------------
    def raise_irq(self, irq: int, payload: bytes = b"") -> int:
        """Inject interrupt ``irq``; returns the number of deliveries.

        Safe to call from any thread (signal handlers, hardware model
        callbacks): it only posts frames to the thread-safe inbound
        queue.
        """
        listeners = self._listeners.get(irq)
        if not listeners:
            return 0
        self.raised += 1
        for tid in listeners:
            frame = Frame.build(
                target=tid,
                initiator=EXECUTIVE_TID,
                function=EXEC_INTERRUPT,
                priority=INTERRUPT_PRIORITY,
                transaction_context=irq,
                payload=payload,
            )
            self._executive.post_inbound(frame)
        return len(listeners)

    # -- OS signal bridge (native plane) -----------------------------------
    def attach_signal(self, signum: int, irq: int | None = None) -> None:
        """Map an OS signal to an interrupt number (default: signum).

        Only callable from the main thread (a CPython restriction on
        ``signal.signal``); the handler itself is thread-agnostic.
        """
        if threading.current_thread() is not threading.main_thread():
            raise I2OError("signals can only be attached from the main thread")
        irq_number = signum if irq is None else irq
        previous = signal.signal(
            signum, lambda _sig, _frame: self.raise_irq(irq_number)
        )
        self._signal_tokens[signum] = previous

    def detach_signal(self, signum: int) -> None:
        previous = self._signal_tokens.pop(signum, None)
        if previous is not None:
            signal.signal(signum, previous)  # type: ignore[arg-type]
