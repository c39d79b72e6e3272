"""Continuous profiling and latency attribution.

Two instruments answering "why is p99 slow?" from one command:

* :mod:`repro.profile.sampler` — a background thread walks
  ``sys._current_frames()`` for registered executive loop threads at a
  configurable rate, attributing each sample to the dispatch in flight
  on the walked stack (node, device TiD, message type) and
  aggregating collapsed-stack counts for flamegraph rendering;
* :mod:`repro.profile.critical` — decomposes the traced frame
  lifetimes of one merged flight-recorder timeline (live rings or
  dumps) into named per-hop segments (queue-wait, dispatch, encode,
  wire, journal, ack), reports per-segment p50/p99 and names the
  dominant hop and segment of slow traces.

Slow-frame capture is the flight recorder's dispatch budget
(``FlightRecorder(budget_ns=...)``).  The sampler attaches nothing to
an executive: it reads the in-flight dispatch from the stack it
walks, so the dispatch loop pays nothing for it.  ``python -m repro.diag
flame`` and ``where`` run the kit against the traced 4-node event
builder.
"""
