"""Clocks and time probes.

The paper's whitebox benchmark used *"lightweight high-resolution time
probes based on reading the CPU clock ticks into some reserved memory
region"* — the native-plane analogue is ``time.perf_counter_ns``; the
simulation-plane analogue is the virtual clock of the discrete-event
kernel.  Framework code only ever sees the :class:`Clock` protocol, so
the two planes share every code path.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # the native plane never loads the simulation kernel
    from repro.sim.kernel import Simulator


@runtime_checkable
class Clock(Protocol):
    """Minimal clock interface used throughout the framework."""

    def now_ns(self) -> int:
        """Current time in nanoseconds (monotonic)."""
        ...  # pragma: no cover - protocol


class WallClock:
    """Real monotonic time (native plane)."""

    # The C function itself, not a method wrapping it: ``now_ns()`` is
    # read several times per message, and a Python frame per read
    # would double its cost.
    now_ns = staticmethod(time.perf_counter_ns)


class SimClock:
    """Virtual time read from a simulation kernel (simulation plane)."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def now_ns(self) -> int:
        return self.sim.now
