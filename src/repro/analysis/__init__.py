"""Runtime checkers for the frame-ownership protocol.

Frame ownership is a protocol (DESIGN §5): the caller owns a loaned
block until ``transmit`` commits, the transport owns it afterwards, and
every live pool frame is its block's one :class:`~repro.i2o.frame.Frame`,
released exactly once.  The paper's whole
fault-tolerance argument (§3.2) rests on the executive owning *all*
message memory — a misbehaving device must not be able to corrupt the
system — so violations of the ownership protocol are correctness bugs
even when every loan happens to be returned today.

This package holds the checkers a running cluster arms:

* :mod:`repro.analysis.sanitize` — an opt-in debug pool
  (``REPRO_SANITIZE=1``) that poisons blocks on free, verifies canaries
  on re-allocation, records allocation/transfer sites, and reports
  leaked blocks with their acquisition tracebacks at shutdown; plus
  the thread-affinity guard (``REPRO_AFFINITY=1``).
* :mod:`repro.analysis.crashpoints` — the named crash windows of the
  durable path, armed by the crash-point matrix.

The static side — the ownership and race lint — guards the repository,
not a running cluster, and lives outside the package as ``python -m
tools.lint``.
"""
