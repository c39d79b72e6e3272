"""repro.flightrec — the per-executive record stream and its projections.

* :mod:`repro.flightrec.recorder` — ``FlightRecorder``, the bounded,
  preallocated binary event ring every subsystem writes into, spilled
  to disk on crash paths; the only per-node store of frame-lifecycle
  facts;
* :mod:`repro.flightrec.dump` — ``load_dump`` / ``load_dumps`` /
  ``FlightDump``: dump verification and decoding;
* :mod:`repro.flightrec.timeline` — ``project_hops`` / ``Hop``, a
  node's traced dispatches projected from its ``dispatch`` records,
  and ``MergedTimeline``, multi-node causal stitching by trace id and
  reliable sequence number, over dumps or live recorders;
* the ``EV_*`` kinds and their argument contract live in
  :mod:`repro.flightrec.records`; ``python -m repro.diag timeline``
  is the post-mortem CLI.
"""
