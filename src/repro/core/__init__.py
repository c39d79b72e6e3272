"""The XDAQ executive core.

Paper §4: *"The executive accepts incoming messages and forwards them
to the device classes ... the loop of control remains in the executive
framework.  There exist multiple dispatch tables for all the device
class instances, but the executive performs the dispatching.
Furthermore the executive has control over all the memory that can be
accessed by the registered modules."*
"""

from repro.core.device import Listener, RETAIN
from repro.core.dispatcher import DispatchTable, Functor
from repro.core.executive import Executive, Route
from repro.core.liveness import HeartbeatService, PeerTable
from repro.core.probes import CostModel
from repro.core.queues import MessagingInstance
from repro.core.registry import ModuleRegistry, download_module
from repro.core.request import Requester
from repro.core.scheduler import PriorityScheduler
from repro.core.states import DeviceState, PeerState
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
