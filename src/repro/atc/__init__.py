"""Air-traffic monitoring: the paper's *other* motivating domain.

Paper §1: *"Air-traffic monitoring [3] or nuclear/particle physics
data acquisition [4] systems are examples from this domain that rely
on custom embedded devices and contain real-time paths."*

Where the DAQ kit (:mod:`repro.daq`) exercises bulk event building,
this kit exercises the framework's **real-time path** machinery:

* :class:`~repro.atc.radar.RadarSource` — emits periodic position
  reports for a set of simulated aircraft (timer-driven, like real
  sensor heads), which :mod:`repro.atc.aircraft` synthesizes;
* :class:`~repro.atc.correlator.TrackCorrelator` — fuses reports from
  multiple radars into tracks, detects separation violations, and
  raises **conflict alerts at priority 0** while routine track updates
  travel at default priority — the seven-level I2O scheduler doing the
  job it exists for;
* :class:`~repro.atc.console.AlertConsole` — receives alerts and
  updates, proving the priority inversion never happens (alerts always arrive first);
* a watchdog-guarded correlator variant for the §4 misbehaving-handler
  scenario in a realistic role.
"""
