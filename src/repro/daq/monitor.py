"""DAQ monitoring through standard utility messages.

The monitor never uses private verbs of the devices it watches: it
pulls counters with ``UtilParamsGet`` — demonstrating the paper's
claim that the standard executive/utility interfaces make every
component observable "according to one common scheme" (§2, system
management).  Devices expose counters by overriding
``export_counters``.
"""

from __future__ import annotations

import functools

from repro.core.device import decode_params, encode_params
from repro.core.request import Requester
from repro.i2o.frame import Frame
from repro.i2o.function_codes import UTIL_PARAMS_GET
from repro.i2o.tid import Tid


class DaqMonitor(Requester):
    """Collects parameter snapshots from a set of watched TiDs, one
    ``UtilParamsGet`` each per :meth:`sweep`."""

    device_class = "daq_monitor"

    def __init__(self, name: str = "monitor") -> None:
        super().__init__(name)
        self.watched: list[Tid] = []
        #: tid -> latest parameter snapshot
        self.snapshots: dict[Tid, dict[str, str]] = {}
        self.sweeps = 0

    def on_plugin(self) -> None:
        self.table.bind(UTIL_PARAMS_GET, self.handle_reply)

    def watch(self, tid: Tid) -> None:
        if tid not in self.watched:
            self.watched.append(tid)

    def sweep(self) -> int:
        """Request a fresh snapshot from every watched device."""
        for tid in self.watched:
            self.request(
                tid, function=UTIL_PARAMS_GET, slot=tid,
                on_reply=functools.partial(self._on_snapshot, tid),
            )
        self.sweeps += 1
        return len(self.watched)

    def on_unsolicited(self, frame: Frame) -> None:
        # Someone asked the monitor for its own parameters.
        self.reply(frame, encode_params(self.parameters))

    def _on_snapshot(self, tid: Tid, frame: Frame) -> None:
        if not frame.is_failure:
            self.snapshots[tid] = decode_params(frame.payload)

    def snapshot(self, tid: Tid) -> dict[str, str]:
        return dict(self.snapshots.get(tid, {}))
