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

# The README quickstart imports these names from the package.
from repro.core.device import Listener as Listener
from repro.core.executive import Executive as Executive
from repro.transports.agent import PeerTransportAgent as PeerTransportAgent
