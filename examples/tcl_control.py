#!/usr/bin/env python
"""Cluster configuration from a Tcl script on the primary host (§4).

The paper: "Configuration and control of the executive is done through
I2O executive messages.  They are sent from a Tcl script that resides
on the primary host to all executives in the distributed system."

This example builds a three-node cluster, then runs a Tcl-subset
control script that (1) queries each node's status, (2) *downloads a
new device class* into node 2 at runtime (paper §4's dynamic module
download), (3) sets a parameter on it, and (4) enables the system.

Run: ``python examples/tcl_control.py``
"""

from repro.config.control import HostController
from repro.config.tclish import TclInterp
from repro.core.executive import Executive
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport

#: Source text "downloaded" into a running executive, exactly like the
#: paper downloads compiled object code into a running node.
COUNTER_SOURCE = '''
from repro.core.device import Listener

class Counter(Listener):
    """Counts private pings; exports the count as a parameter."""

    device_class = "downloaded_counter"

    def on_plugin(self):
        self.parameters.setdefault("label", "unnamed")
        self.count = 0
        self.bind(0x0042, self.on_ping)

    def on_ping(self, frame):
        if not frame.is_reply:
            self.count += 1
            self.reply(frame)

    def export_counters(self):
        return {"count": self.count}
'''

CONTROL_SCRIPT = r"""
# -- survey the cluster --------------------------------------------------
foreach node {0 1 2} {
    puts "node $node status: [status $node]"
}

# -- hot-plug a new device class into node 2 -----------------------------
set tid [module 2 Counter $counter_source]
puts "downloaded Counter onto node 2 at TiD $tid"

# -- configure it through UtilParamsSet ---------------------------------
param set 2 $tid label primary-counter
puts "label is now: [param get 2 $tid label]"

# -- bring the whole system to ENABLED ----------------------------------
foreach node {0 1 2} { enable $node }
puts "logical configuration table of node 2: [lct 2]"
"""


def main() -> None:
    network = LoopbackNetwork()
    cluster = {}
    for node in range(3):
        exe = Executive(node=node)
        PeerTransportAgent.attach(exe).register(
            LoopbackTransport(network), default=True
        )
        cluster[node] = exe

    def pump() -> None:
        for exe in cluster.values():
            exe.step()

    # The controller lives on node 0: the primary host.
    controller = HostController(pump=pump)
    cluster[0].install(controller)

    interp = TclInterp()
    interp.set_var("counter_source", COUNTER_SOURCE)
    controller.bind_tcl(interp, cluster)
    interp.run(CONTROL_SCRIPT)

    for line in interp.output:
        print(line)

    # Verify out-of-band that the script really took effect.
    counter = cluster[2].find_device("Counter")
    assert counter.parameters["label"] == "primary-counter"
    assert cluster[2].state.value == "enabled"
    print("script effects verified: label set, node 2 enabled")


if __name__ == "__main__":
    main()
