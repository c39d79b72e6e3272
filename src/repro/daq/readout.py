"""Readout units: per-event fragment buffers.

A readout unit stands for one slice of front-end electronics.  On
``XF_READOUT`` it synthesises (deterministically) its fragment of the
event into a buffer; on ``XF_REQUEST_FRAGMENT`` it replies with the
fragment — or parks the request if readout has not happened yet
(builder requests and readout commands race freely across transports).
``XF_CLEAR`` drops the buffer once the event manager confirms the
event was built.
"""

from __future__ import annotations

from repro.core.device import Listener, RETAIN
from repro.daq.events import synthesize_fragment
from repro.daq.protocol import (
    EVENT_ID,
    MT_CLEAR,
    MT_READOUT,
    MT_REQUEST_FRAGMENT,
    XF_CLEAR,
    XF_READOUT,
    XF_REQUEST_FRAGMENT,
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
        super().__init__(name or f"ru{ru_id}")
        self.ru_id = ru_id
        #: fan-out traffic addresses this unit under its ru_id
        self.dataflow_key = ru_id
        self.mean_fragment = mean_fragment
        self._buffers: dict[int, bytes] = {}
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
        self._parked.clear()

    # -- handlers ---------------------------------------------------------
    def _on_readout(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        (event_id,) = EVENT_ID.unpack_from(frame.payload, 0)
        if event_id not in self._buffers:
            self._buffers[event_id] = synthesize_fragment(
                event_id, self.ru_id, mean=self.mean_fragment
            )
            self.read_out += 1
        # Serve any builder that asked before the data existed.
        for parked in self._parked.pop(event_id, ()):  # frames were RETAINed
            self._serve(parked)
            self._require_live().frame_free(parked)

    def _on_request(self, frame: Frame) -> object:
        if frame.is_reply:
            return None
        (event_id,) = EVENT_ID.unpack_from(frame.payload, 0)
        if event_id not in self._buffers:
            # Park the request until readout happens: keep the frame
            # alive past dispatch by taking ownership (RETAIN).
            self._parked.setdefault(event_id, []).append(frame)
            return RETAIN
        self._serve(frame)
        return None

    def _serve(self, request: Frame) -> None:
        (event_id,) = EVENT_ID.unpack_from(request.payload, 0)
        self.reply(request, self._buffers[event_id])
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


def pack_event_id(event_id: int) -> bytes:
    return EVENT_ID.pack(event_id)
