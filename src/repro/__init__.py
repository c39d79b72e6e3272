"""repro — reproduction of *Architectural Software Support for
Processing Clusters* (Gutleber et al., IEEE CLUSTER 2000).

The package implements the paper's XDAQ toolkit — an I2O-based
peer-operation framework for processing clusters — together with the
substrates its evaluation ran on (a Myrinet/GM fabric model, PCI
segments with hardware FIFOs) and the full benchmark harness for the
paper's figure 6 and table 1 plus every quantitative claim made in
prose.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.

Quickstart::

    from repro import Executive, Listener, PeerTransportAgent
    from repro.transports import LoopbackNetwork, LoopbackTransport

    class Echo(Listener):
        def on_plugin(self):
            self.bind(0x01, self.on_ping)
        def on_ping(self, frame):
            self.reply(frame, bytes(frame.payload))

See ``examples/quickstart.py`` for the complete two-node program.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.config.bootstrap import Cluster, bootstrap
    from repro.core.device import RETAIN, FunctionalListener, Listener
    from repro.core.discovery import DiscoveryService
    from repro.core.executive import Executive, Route
    from repro.core.probes import CostModel
    from repro.core.registry import download_module
    from repro.core.reliable import ReliableEndpoint
    from repro.core.simnode import SimNode
    from repro.core.states import DeviceState
    from repro.core.watchdog import HandlerWatchdog, WatchdogTimeout
    from repro.i2o.frame import Frame
    from repro.i2o.sgl import Fragmenter, Reassembler, ScatterGatherList
    from repro.mem.pool import BufferPool, OriginalAllocator, TableAllocator
    from repro.sim.kernel import Simulator
    from repro.transports.agent import PeerTransportAgent

__version__ = "1.0.0"

__all__ = [
    "BufferPool",
    "Cluster",
    "CostModel",
    "DeviceState",
    "DiscoveryService",
    "Executive",
    "Fragmenter",
    "Frame",
    "FunctionalListener",
    "HandlerWatchdog",
    "Listener",
    "OriginalAllocator",
    "PeerTransportAgent",
    "RETAIN",
    "Reassembler",
    "ReliableEndpoint",
    "Route",
    "bootstrap",
    "ScatterGatherList",
    "SimNode",
    "Simulator",
    "TableAllocator",
    "WatchdogTimeout",
    "download_module",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config.bootstrap": ("Cluster", "bootstrap"),
    "repro.core.device": ("RETAIN", "FunctionalListener", "Listener"),
    "repro.core.discovery": ("DiscoveryService",),
    "repro.core.executive": ("Executive", "Route"),
    "repro.core.probes": ("CostModel",),
    "repro.core.registry": ("download_module",),
    "repro.core.reliable": ("ReliableEndpoint",),
    "repro.core.simnode": ("SimNode",),
    "repro.core.states": ("DeviceState",),
    "repro.core.watchdog": ("HandlerWatchdog", "WatchdogTimeout"),
    "repro.i2o.frame": ("Frame",),
    "repro.i2o.sgl": ("Fragmenter", "Reassembler", "ScatterGatherList"),
    "repro.mem.pool": ("BufferPool", "OriginalAllocator", "TableAllocator"),
    "repro.sim.kernel": ("Simulator",),
    "repro.transports.agent": ("PeerTransportAgent",),
})
