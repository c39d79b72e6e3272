"""Bounding misbehaving message handlers.

Paper §4: *"We cannot prevent monopolization of the CPU or stalling of
the system caused by a misbehaving message handler with this scheme.
To do so, it is necessary to asynchronously terminate the handler after
a configured time interval has elapsed.  Such a mechanism can be
implemented making use of the I2O core timer facilities."*

The reproduction implements both halves of that sentence:

* **cooperative** (always available): the guard measures the handler's
  wall-clock duration; on overrun the executive quarantines the device
  (state → FAILED, queued frames dropped) so one bad handler cannot
  keep monopolising dispatch.
* **preemptive** (opt-in, CPython only): a monitor timer injects
  :class:`WatchdogTimeout` into the dispatch thread via
  ``PyThreadState_SetAsyncExc``, actually interrupting a spinning
  handler.  Injection is asynchronous and lands at the next bytecode
  boundary — best effort, exactly like asynchronous termination on a
  real executive, and disabled by default.

On the simulation plane wall time means nothing: the node's
:class:`~repro.core.simnode.CostLedger` takes the watchdog over and
holds ``limit_ns`` against each handler's *modelled* cost instead.
"""

from __future__ import annotations

import ctypes
import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.i2o.errors import I2OError


class WatchdogTimeout(I2OError):
    """Raised (cooperatively or by injection) when a handler overruns."""


class HandlerWatchdog:
    """Guards each handler upcall with a time budget."""

    def __init__(self, limit_ns: int, *, preemptive: bool = False) -> None:
        if limit_ns <= 0:
            raise I2OError(f"watchdog limit must be positive, got {limit_ns}")
        self.limit_ns = limit_ns
        self.preemptive = preemptive
        self.overruns = 0

    @contextmanager
    def guard(self, label: str = "") -> Iterator[None]:
        """Run one handler under the budget.

        Raises :class:`WatchdogTimeout` — after the fact in cooperative
        mode, mid-handler (best effort) in preemptive mode.  The caller
        (the executive) is responsible for quarantining the device.
        """
        timer: threading.Timer | None = None
        fired = threading.Event()
        if self.preemptive:
            victim = threading.get_ident()

            def inject() -> None:
                fired.set()
                # One pending async exception per thread; returns the
                # number of threads affected (0 if the id vanished).
                ctypes.pythonapi.PyThreadState_SetAsyncExc(
                    ctypes.c_ulong(victim), ctypes.py_object(WatchdogTimeout)
                )

            timer = threading.Timer(self.limit_ns / 1e9, inject)
            timer.daemon = True
            timer.start()
        start = time.perf_counter_ns()
        try:
            yield
        except WatchdogTimeout:
            self.overruns += 1
            raise WatchdogTimeout(
                f"handler {label or '?'} terminated after exceeding "
                f"{self.limit_ns} ns"
            ) from None
        finally:
            if timer is not None:
                timer.cancel()
                if fired.is_set():
                    # The injection raced handler completion; clear any
                    # still-pending async exception by overwriting with NULL.
                    ctypes.pythonapi.PyThreadState_SetAsyncExc(
                        ctypes.c_ulong(victim), None
                    )
        elapsed = time.perf_counter_ns() - start
        if elapsed > self.limit_ns:
            self.overruns += 1
            raise WatchdogTimeout(
                f"handler {label or '?'} ran {elapsed} ns, "
                f"budget {self.limit_ns} ns"
            )
