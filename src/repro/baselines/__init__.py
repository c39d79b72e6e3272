"""Comparison baselines from the paper's evaluation and related work.

* :mod:`repro.baselines.rawgm` — the "test program using Myrinet/GM
  directly" that provides figure 6's middle slope;
* :mod:`repro.baselines.miniorb` — a deliberately conventional
  CORBA-style ORB (per-call request objects, CDR-aligned marshalling,
  repeated buffer copies, string object keys) standing in for the
  §6.2 comparison: "the overhead induced by an ORB core is
  significant (about 90 µsec)".
"""
