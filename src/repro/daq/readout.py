"""Readout units: per-event fragment buffers.

A readout unit stands for one slice of front-end electronics.  On
``XF_READOUT`` it takes its fragment of the event as an arena slice (a
view of the front-end memory) plus its CRC; on ``XF_REQUEST_FRAGMENT``
it writes both straight into the loaned reply frame — or parks the
request if readout has not happened yet (builder requests and readout
commands race freely across transports).  ``XF_CLEAR`` drops the
buffer once the event manager confirms the event was built.
"""

from __future__ import annotations

import zlib

from repro.core.device import Listener, RETAIN
from repro.daq.events import (
    FRAGMENT_OVERHEAD,
    check_fragment_shape,
    fragment_payload,
    fragment_size,
    write_fragment,
)
from repro.daq.protocol import (
    EVENT_ID,
    MT_CLEAR,
    MT_READOUT,
    MT_REQUEST_FRAGMENT,
    XF_CLEAR,
    XF_READOUT,
    XF_REQUEST_FRAGMENT,
    check_int,
)
from repro.i2o.frame import Frame


class ReadoutUnit(Listener):
    """One detector readout slice."""

    device_class = "daq_readout"
    consumes = (MT_READOUT, MT_REQUEST_FRAGMENT, MT_CLEAR)
    #: fragment buffers are the scarce resource: a small FIFO share
    #: makes READOUT fan-out the edge that saturates first
    queue_capacity = 64

    def __init__(self, name: str = "", ru_id: int = 0, *, mean_fragment: int = 2048) -> None:
        # refused here, so a bad spec fails at boot, not in a handler
        check_fragment_shape(mean_fragment)
        check_int("ru_id", ru_id, 0, 0xFFFF_FFFF)  # a u32 in each fragment
        super().__init__(name or f"ru{ru_id}")
        self.ru_id = ru_id
        #: fan-out traffic addresses this unit under its ru_id
        self.dataflow_key = ru_id
        self.mean_fragment = mean_fragment
        #: event id -> (payload view, its CRC32, computed once here as
        #: the front end would)
        self._buffers: dict[int, tuple[memoryview, int]] = {}
        self._parked: dict[int, list[Frame]] = {}
        self.read_out = 0
        self.served = 0
        self.cleared = 0
        self.parameters["ru_id"] = str(ru_id)

    def on_plugin(self) -> None:
        self.bind(XF_READOUT, self._on_readout)
        self.bind(XF_REQUEST_FRAGMENT, self._on_request)
        self.bind(XF_CLEAR, self._on_clear)

    def on_reset(self) -> None:
        self._buffers.clear()
        for request in sum(self._parked.values(), []):  # RETAINed: ours
            self._require_live().frame_free(request)
        self._parked.clear()

    on_unplug = on_reset

    # -- handlers ---------------------------------------------------------
    def _on_readout(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        (event_id,) = EVENT_ID.unpack_from(frame.payload, 0)
        if event_id not in self._buffers:
            size = fragment_size(event_id, self.ru_id, mean=self.mean_fragment)
            data = fragment_payload(event_id, self.ru_id, size)
            self._buffers[event_id] = (data, zlib.crc32(data))
            self.read_out += 1
        # Serve any builder that asked before the data existed; the
        # frames were RETAINed, so all are freed even if a reply raises.
        parked = self._parked.pop(event_id, ())
        try:
            for request in parked:
                self._serve(request, event_id)
        finally:
            for request in parked:
                self._require_live().frame_free(request)

    def _on_request(self, frame: Frame) -> object:
        if frame.is_reply:
            return None
        (event_id,) = EVENT_ID.unpack_from(frame.payload, 0)
        if event_id not in self._buffers:
            # Park the request until readout happens: keep the frame
            # alive past dispatch by taking ownership (RETAIN).
            self._parked.setdefault(event_id, []).append(frame)
            return RETAIN
        self._serve(frame, event_id)
        return None

    def _serve(self, request: Frame, event_id: int) -> None:
        data, crc = self._buffers[event_id]
        self.reply_into(
            request, FRAGMENT_OVERHEAD + len(data),
            lambda view: write_fragment(view, event_id, self.ru_id, data, crc),
        )
        self.served += 1

    def _on_clear(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        (event_id,) = EVENT_ID.unpack_from(frame.payload, 0)
        if self._buffers.pop(event_id, None) is not None:
            self.cleared += 1

    # -- introspection ------------------------------------------------------
    def export_counters(self) -> dict[str, object]:
        return {
            "read_out": self.read_out,
            "served": self.served,
            "cleared": self.cleared,
            "buffered": len(self._buffers),
            "parked": self.parked_requests,
        }

    @property
    def buffered_events(self) -> int:
        return len(self._buffers)

    @property
    def parked_requests(self) -> int:
        return sum(len(v) for v in self._parked.values())
