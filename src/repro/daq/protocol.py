"""The private message vocabulary of the DAQ application class.

All codes live in the private XFunctionCode space (Function = 0xFF)
under organisation id ``DAQ_ORG``.  One table, shared by every DAQ
device, so the protocol is greppable in one place.

The ``MT_*`` declarations below give each code a typed identity in the
dataflow registry — the emits/consumes contracts the devices declare
and bootstrap turns into route tables.  ``MT_EVENT_DONE`` is the one
intentional back-edge of the event builder (completion flowing against
the data direction), so it is declared ``feedback=True``: the forward
dataflow stays a DAG, the control loop that closes it is explicit.
"""

from __future__ import annotations

import math
import struct

from repro.dataflow.registry import message_type
from repro.i2o.errors import I2OError

DAQ_ORG = 0xCE12  # 'CERN-ish' vendor id for the private class

#: every control message's payload: the 64-bit event id
EVENT_ID = struct.Struct("<Q")


def check_int(name: str, value: object, low: int, high: float = math.inf) -> None:
    """Refuse at construction what a handler would trip over later:
    ``value`` must be an int (not a bool) in ``low..high``."""
    if isinstance(value, bool) or not isinstance(value, int) \
            or not low <= value <= high:
        bound = f">= {low}" if high == math.inf else f"in {low}..{high}"
        raise I2OError(f"{name} must be an int {bound}, got {value!r}")

# trigger -> event manager
XF_TRIGGER = 0x0101
# event manager -> readout units: capture data for event N
XF_READOUT = 0x0102
# event manager -> builder unit: event N is yours
XF_ALLOCATE = 0x0103
# builder unit -> readout unit: send me your fragment of event N
XF_REQUEST_FRAGMENT = 0x0104
# builder unit -> event manager: event N fully built
XF_EVENT_DONE = 0x0105
# event manager -> readout units: discard buffers of event N
XF_CLEAR = 0x0106
# event manager -> builder unit: event N was taken from you, drop it
XF_ABANDON = 0x0107

# A trigger the window refuses is the trigger's own dead time: it
# sheds, and never parks in the outbox its node shares with the EVM.
MT_TRIGGER = message_type(
    "daq.trigger", XF_TRIGGER, organization=DAQ_ORG, mode="one",
    on_saturation="shed",
)
MT_READOUT = message_type(
    "daq.readout", XF_READOUT, organization=DAQ_ORG, mode="fanout",
)
MT_ALLOCATE = message_type(
    "daq.allocate", XF_ALLOCATE, organization=DAQ_ORG, mode="keyed",
)
MT_REQUEST_FRAGMENT = message_type(
    "daq.request-fragment", XF_REQUEST_FRAGMENT, organization=DAQ_ORG,
    mode="fanout",
)
MT_EVENT_DONE = message_type(
    "daq.event-done", XF_EVENT_DONE, organization=DAQ_ORG, mode="one",
    feedback=True,
)
MT_CLEAR = message_type(
    "daq.clear", XF_CLEAR, organization=DAQ_ORG, mode="fanout",
)
MT_ABANDON = message_type(
    "daq.abandon", XF_ABANDON, organization=DAQ_ORG, mode="keyed",
)
