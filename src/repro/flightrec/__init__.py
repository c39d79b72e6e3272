"""repro.flightrec — the per-executive record stream and its projections.

* :class:`FlightRecorder` — the bounded, preallocated binary event
  ring every subsystem writes into, spilled to disk on crash paths;
  the only per-node store of frame-lifecycle facts;
* :func:`load_dump` / :func:`load_dumps` / :class:`FlightDump` — dump
  verification and decoding;
* :func:`project_hops` / :class:`Hop` — a node's traced dispatches,
  projected from its ``dispatch`` records;
* :class:`MergedTimeline` — multi-node causal stitching by trace id
  and reliable sequence number, over dumps or live recorders;
* the ``EV_*`` kinds and their argument contract live in
  :mod:`repro.flightrec.records`; ``python -m repro.diag timeline``
  is the post-mortem CLI.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.flightrec.dump import FlightDump, describe_dump, load_dump, load_dumps
    from repro.flightrec.recorder import FlightRecorder
    from repro.flightrec.records import (
        KIND_NAMES,
        FlightRecError,
        FlightRecord,
        pack3,
        unpack3,
    )
    from repro.flightrec.timeline import (
        Gap,
        Hop,
        MergedTimeline,
        TimelineEvent,
        in_flight_sends,
        project_hops,
    )

__all__ = [
    "FlightRecorder",
    "FlightDump",
    "FlightRecError",
    "FlightRecord",
    "Gap",
    "Hop",
    "KIND_NAMES",
    "MergedTimeline",
    "TimelineEvent",
    "describe_dump",
    "in_flight_sends",
    "load_dump",
    "load_dumps",
    "pack3",
    "project_hops",
    "unpack3",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.flightrec.dump": ("FlightDump", "describe_dump", "load_dump", "load_dumps"),
    "repro.flightrec.recorder": ("FlightRecorder",),
    "repro.flightrec.records": (
        "KIND_NAMES", "FlightRecError", "FlightRecord", "pack3", "unpack3",
    ),
    "repro.flightrec.timeline": (
        "Gap", "Hop", "MergedTimeline", "TimelineEvent", "in_flight_sends",
        "project_hops",
    ),
})
