"""Frame-ownership and race lint for this repo (stdlib ``ast`` only).

Rules
-----

=======  =========================================================
OWN001   use of a frame after ownership transferred or released
OWN002   frame/block acquired but not released on some path
OWN003   frame/block released twice on one path
RACE001  device/executive state mutated from an rx-thread context
RACE002  shared class/module-level state mutated from an rx thread
=======  =========================================================

The ownership rules encode the frame-ownership protocol (DESIGN §5):
the caller owns a loaned block until ``transmit``/``frame_send``/
``forward``/``make_handoff`` commits; afterwards the transport owns it.
``release``/``free``/``frame_free`` drop the caller's reference.  A bare ``return frame``
after a transfer is *not* a use — it hands the alias outward without
dereferencing it (the ``Device.send`` idiom) — but any attribute read,
mutation, or further call argument is.  The rules are
**interprocedural**: project-wide ownership summaries follow frames
through helper calls (:mod:`tools.lint.callgraph`), and the RACE rules
classify every function's execution context from its registration
sites (:mod:`tools.lint.contexts`).

Every rule is an error.  Suppress one finding with a trailing
``# repro: noqa RULE`` (or a bare ``# repro: noqa`` for all rules on
that statement).

Run as ``python -m tools.lint src tests examples tools`` from the
repository root.
"""

from tools.lint.engine import lint_paths, lint_source
from tools.lint.violations import FileReport, Violation

__all__ = ["FileReport", "Violation", "lint_paths", "lint_source"]
