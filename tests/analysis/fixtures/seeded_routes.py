"""A route table written from a receive thread, seeded for the lint gate.

The executive owns its route table and lends it out as ``exe.routes``.
The reader thread below creates a proxy through that hop, and this
table's insert holds no lock: RACE001 must follow ``exe.routes.<m>``
into ``RouteTable`` and count its ``self`` as executive state.
``tests/analysis/test_lint_cli.py`` lints this file and expects
RACE001 and nothing else.  Never import this module; never "fix" it.
"""

from __future__ import annotations


class RouteTable:
    def create_proxy(self, node, remote_tid):
        tid = len(self.by_proxy) + 16
        self.by_proxy[tid] = (node, remote_tid)  # RACE001: no lock
        return tid


class SeededRxTransport(Listener):  # noqa: F821 - lint-only, never imported
    """A task-mode transport whose reader thread asks for proxies."""

    def on_plugin(self):
        self._reader = threading.Thread(  # noqa: F821 - lint-only
            target=self._rx_loop, name="pt-seeded-routes", daemon=True
        )
        self._reader.start()

    def _rx_loop(self):
        exe = self.executive
        frame = self._recv_one()
        frame.initiator = exe.routes.create_proxy(1, frame.initiator)
        exe.post_inbound(frame)

    def _recv_one(self):
        return object()
