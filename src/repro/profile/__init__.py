"""Continuous profiling and latency attribution.

Two instruments answering "why is p99 slow?" from one command:

* :mod:`repro.profile.sampler` — a background thread walks
  ``sys._current_frames()`` for registered executive loop threads at a
  configurable rate, attributing each sample to the dispatch context
  the executive publishes (node, device TiD, message type) and
  aggregating collapsed-stack counts for flamegraph rendering;
* :mod:`repro.profile.critical` — decomposes the traced frame
  lifetimes of one merged flight-recorder timeline (live rings or
  dumps) into named per-hop segments (queue-wait, dispatch, encode,
  wire, journal, ack), reports per-segment p50/p99 and names the
  dominant hop and segment of slow traces.

Slow-frame capture is the flight recorder's dispatch budget
(``FlightRecorder(budget_ns=...)``).  The sampler's slot reaches the
dispatch loop as a dispatch observer (:mod:`repro.core.observer`); an
executive without it pays nothing for it.  ``python -m repro.diag
flame`` and ``where`` run the kit against the traced 4-node event
builder.
"""

from repro.profile.critical import (
    SEGMENTS,
    CriticalPathAnalyzer,
    HopBreakdown,
    TracePath,
)
from repro.profile.sampler import DispatchSlot, SamplingProfiler

__all__ = [
    "SEGMENTS",
    "CriticalPathAnalyzer",
    "DispatchSlot",
    "HopBreakdown",
    "SamplingProfiler",
    "TracePath",
]
