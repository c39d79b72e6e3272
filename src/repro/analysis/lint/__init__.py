"""Framework-specific AST linter (stdlib ``ast`` only, no new deps).

Rules
-----

=======  =========================================================
OWN001   use of a frame after ownership transferred or released
OWN002   frame/block acquired but not released on some path
OWN003   frame/block released twice on one path
DSP001   ``table.bind`` with a code not in ``repro.i2o.function_codes``
TID001   raw integer literal where a TiD is expected
EXC001   broad ``except`` that swallows exceptions
DFL002   emission of a message type absent from declared ``emits``
DFL003   handler bound for a type matching neither ``consumes``
         nor ``emits``
RACE001  device/executive state mutated from an rx-thread context
RACE002  shared class/module-level state mutated from an rx thread
=======  =========================================================

The ownership rules encode the PR-3 protocol: the caller owns a loaned
block until ``transmit``/``frame_send``/``forward``/``make_handoff``
commits; afterwards the transport owns it.  ``release``/``free``/
``frame_free`` drop the caller's reference.  A bare ``return frame``
after a transfer is *not* a use — it hands the alias outward without
dereferencing it (the ``Device.send`` idiom) — but any attribute read,
mutation, or further call argument is.  Since PR 9 the rules are
**interprocedural**: project-wide ownership summaries follow frames
through helper calls (:mod:`repro.analysis.lint.callgraph`), and the
RACE rules classify every function's execution context from its
registration sites (:mod:`repro.analysis.lint.contexts`).

Suppress a finding with a trailing ``# repro: noqa RULE`` (or a bare
``# repro: noqa`` for all rules on that line).  Pre-existing accepted
findings live in ``analysis/baseline.json``; see
:mod:`repro.analysis.baseline` for the fix-don't-baseline policy on
OWN/DSP rules.

Run as ``python -m repro.analysis.lint src tests examples``.
"""

from repro.analysis.lint.engine import lint_paths, lint_source
from repro.analysis.violations import FileReport, Severity, Violation

__all__ = ["FileReport", "Severity", "Violation", "lint_paths", "lint_source"]
