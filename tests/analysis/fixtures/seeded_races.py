"""Deliberately racy device code, seeded for the lint gate.

The receive thread spawned in ``on_plugin`` mutates device, executive
and module-level state without marshalling through
``Executive.post_inbound`` — exactly the bugs RACE001/RACE002 exist
for.  ``tests/analysis/test_lint_cli.py`` lints this file with
``--no-default-excludes --expect RACE001 --expect RACE002`` to prove
the context classifier still tags the thread target as rx-reachable.
Never import this module; never "fix" it.
"""

from __future__ import annotations

#: shared module-level state (RACE002 target)
_INFLIGHT: dict = {}


class SeededRxDevice(Listener):  # noqa: F821 - lint-only, never imported
    """A task-mode device whose reader thread bypasses the mailbox."""

    def on_plugin(self):
        self._reader = threading.Thread(  # noqa: F821 - lint-only
            target=self._rx_loop, name="pt-seeded-rx", daemon=True
        )
        self._reader.start()

    def _rx_loop(self):
        frame = self._recv_one()
        self.last_frame = frame  # RACE001: device state from the rx thread
        self.executive.stats["rx"] = 1  # RACE001: executive state, no lock
        _INFLIGHT[id(frame)] = frame  # RACE002: module state from rx thread

    def _recv_one(self):
        return object()
