"""The XDAQ executive core.

Paper §4: *"The executive accepts incoming messages and forwards them
to the device classes ... the loop of control remains in the executive
framework.  There exist multiple dispatch tables for all the device
class instances, but the executive performs the dispatching.
Furthermore the executive has control over all the memory that can be
accessed by the registered modules."*
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.device import Listener, RETAIN
    from repro.core.dispatcher import DispatchTable, Functor
    from repro.core.executive import Executive, Route
    from repro.core.liveness import HeartbeatService
    from repro.core.probes import CostModel
    from repro.core.queues import MessagingInstance
    from repro.core.registry import ModuleRegistry, download_module
    from repro.core.request import Requester
    from repro.core.scheduler import PriorityScheduler
    from repro.core.states import DeviceState, PeerState, PeerTable
    from repro.core.timer import TimerService
    from repro.core.watchdog import HandlerWatchdog, WatchdogTimeout

__all__ = [
    "CostModel",
    "DeviceState",
    "DispatchTable",
    "Executive",
    "Functor",
    "HandlerWatchdog",
    "HeartbeatService",
    "Listener",
    "MessagingInstance",
    "ModuleRegistry",
    "PeerState",
    "PeerTable",
    "PriorityScheduler",
    "RETAIN",
    "Requester",
    "Route",
    "TimerService",
    "WatchdogTimeout",
    "download_module",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.device": ("Listener", "RETAIN"),
    "repro.core.dispatcher": ("DispatchTable", "Functor"),
    "repro.core.executive": ("Executive", "Route"),
    "repro.core.liveness": ("HeartbeatService",),
    "repro.core.probes": ("CostModel",),
    "repro.core.queues": ("MessagingInstance",),
    "repro.core.registry": ("ModuleRegistry", "download_module"),
    "repro.core.request": ("Requester",),
    "repro.core.scheduler": ("PriorityScheduler",),
    "repro.core.states": ("DeviceState", "PeerState", "PeerTable"),
    "repro.core.timer": ("TimerService",),
    "repro.core.watchdog": ("HandlerWatchdog", "WatchdogTimeout"),
})
