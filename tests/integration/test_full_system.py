"""Whole-system integration: every subsystem working together."""

from __future__ import annotations

import time

import pytest

from repro.config.control import HostController
from repro.config.tclish import TclInterp
from repro.core.executive import Executive
from repro.core.states import DeviceState
from repro.rmi.skeleton import RemoteObject, remote
from repro.rmi.stub import Stub, StubDevice
from repro.transports.agent import PeerTransportAgent
from repro.transports.tcp import TcpTransport

from tests.conftest import assert_no_leaks, make_loopback_cluster, pump
from tests.daq.test_eventbuilder import wire_daq


class TestTclDrivenDaq:
    """The paper's full operational story: a Tcl script on the primary
    host configures, enables and monitors a DAQ cluster."""

    def test_script_configures_and_runs_the_daq(self):
        cluster = make_loopback_cluster(5)
        evm, trigger, rus, bus = wire_daq(cluster)

        def pump_once():
            for exe in cluster.values():
                exe.step()

        controller = HostController(pump=pump_once)
        cluster[0].install(controller)
        interp = TclInterp()
        controller.bind_tcl(interp, cluster)
        interp.run("""
            foreach node {0 1 2 3 4} { enable $node }
        """)
        assert all(exe.state is DeviceState.ENABLED
                   for exe in cluster.values())
        trigger.fire_burst(10)
        pump(cluster)
        assert evm.completed == 10
        # Observe through the script too.
        interp.run(f"puts [param get 0 {evm.tid} completed]")
        assert interp.output[-1] == "10"
        assert_no_leaks(cluster)


class TestDaqOverTcpThreads:
    """The native plane at full stretch: threaded executives, real
    sockets, the complete event builder."""

    @pytest.fixture
    def tcp_cluster(self):
        exes, pts = {}, {}
        for node in range(5):
            exe = Executive(node=node)
            pt = TcpTransport(name="tcp")
            PeerTransportAgent.attach(exe).register(pt, default=True)
            exes[node], pts[node] = exe, pt
        for a in exes:
            for b in exes:
                if a != b:
                    pts[a].add_peer(b, "127.0.0.1", pts[b].bound_port)
        yield exes
        for exe in exes.values():
            exe.stop()
        for pt in pts.values():
            pt.shutdown()

    def test_event_building_over_sockets(self, tcp_cluster):
        evm, trigger, rus, bus = wire_daq(tcp_cluster, mean_fragment=256)
        for exe in tcp_cluster.values():
            exe.start()
        trigger_events = 12
        # fire from within the cluster's own thread context via timer-free
        # direct calls; sends are thread-safe (queues + locks).
        trigger.fire_burst(trigger_events)
        deadline = time.monotonic() + 20
        while evm.completed < trigger_events and time.monotonic() < deadline:
            time.sleep(0.01)
        assert evm.completed == trigger_events
        assert all(bu.corrupt == 0 for bu in bus.values())


class TestRmiAndRawFramesCoexist:
    def test_mixed_traffic_on_one_executive_pair(self, two_nodes):
        class Calc(RemoteObject):
            @remote
            def square(self, x):
                return x * x

        from repro.bench.devices import EchoDevice, PingDevice

        calc_tid = two_nodes[1].install(Calc())
        echo_tid = two_nodes[1].install(EchoDevice())

        def pump_once():
            for exe in two_nodes.values():
                exe.step()

        stub_dev = StubDevice(pump=pump_once)
        two_nodes[0].install(stub_dev)
        calc = Stub(stub_dev, two_nodes[0].routes.create_proxy(1, calc_tid))

        ping = PingDevice()
        two_nodes[0].install(ping)
        ping.configure(two_nodes[0].routes.create_proxy(1, echo_tid), 64, 5)
        ping.kick()
        results = [calc.square(i) for i in range(5)]
        pump(two_nodes)
        assert results == [0, 1, 4, 9, 16]
        assert len(ping.rtts_ns) == 5


class TestDynamicUpgradeMidRun:
    """Download a new device class while traffic is flowing and route
    new traffic to it (paper §4's runtime extensibility)."""

    def test_hot_added_device_serves_immediately(self, two_nodes):
        from repro.core.registry import download_module
        from repro.core.device import Listener

        source = (
            "from repro.core.device import Listener\n"
            "class Doubler(Listener):\n"
            "    def on_plugin(self):\n"
            "        self.bind(0x70, self.on_req)\n"
            "    def on_req(self, frame):\n"
            "        if not frame.is_reply:\n"
            "            self.reply(frame, bytes(frame.payload) * 2)\n"
        )
        caller = Listener("caller")
        two_nodes[0].install(caller)
        got = []
        caller.bind(0x70, lambda f: got.append(bytes(f.payload))
                    if f.is_reply else None)
        tid = download_module(two_nodes[1], source, "Doubler")
        caller.send(two_nodes[0].routes.create_proxy(1, tid), b"ab",
                    xfunction=0x70)
        pump(two_nodes)
        assert got == [b"abab"]
