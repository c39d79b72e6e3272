"""The one request/reply primitive and the three defects it removed.

Every test below the primitive's own section failed at the parent
commit: the five synchronous clients stepped executives they do not
own, the two sweepers leaked one table entry per unanswered sweep, and
discovery spun through its whole pump budget after a failure reply.
"""

from __future__ import annotations

import threading
from collections import defaultdict

import pytest

from repro.config.control import ControlError, HostController
from repro.core.device import Listener
from repro.core.discovery import DiscoveryError, DiscoveryService
from repro.core.executive import Executive
from repro.core.request import Requester
from repro.core.telemetry import TelemetryAgent, TelemetryCollector
from repro.daq.monitor import DaqMonitor
from repro.devclasses.block import BlockClient, BlockDeviceError
from repro.devclasses.sequential import SequentialClient
from repro.i2o.errors import I2OError
from repro.rmi.stub import RemoteCallError, StubDevice
from repro.transports.agent import PeerTransportAgent
from repro.transports.faulty import FaultPlan, FaultyLoopbackTransport
from repro.transports.loopback import LoopbackNetwork

from tests.conftest import assert_no_leaks, make_loopback_cluster, pump

XF_ASK = 0x0301


class Asker(Requester):
    def on_plugin(self):
        self.bind(XF_ASK, self.handle_reply)


class Answerer(Listener):
    def on_plugin(self):
        self.bind(XF_ASK, lambda f: self.reply(f, bytes(f.payload).upper()))


@pytest.fixture
def asking(two_nodes):
    asker = Asker(pump=two_nodes[1].step)
    two_nodes[0].install(asker)
    target = two_nodes[0].routes.create_proxy(1, two_nodes[1].install(Answerer()))
    return two_nodes, asker, target


class TestPrimitive:
    def test_ask_returns_the_reply(self, asking):
        _, asker, target = asking
        assert asker.ask(target, b"ping", xfunction=XF_ASK) == (False, b"PING")
        assert asker.outstanding == 0

    def test_callback_runs_for_failure_replies_too(self, asking):
        cluster, asker, _ = asking
        nowhere = cluster[0].routes.create_proxy(1, 0x7F0)  # no such device
        seen = []
        asker.request(nowhere, xfunction=XF_ASK,
                      on_reply=lambda f: seen.append(f.is_failure))
        pump(cluster)
        assert seen == [True]

    def test_writer_form_builds_the_payload_in_the_loaned_frame(self, asking):
        cluster, asker, target = asking
        seen = []

        def write(view):
            view[:] = b"abc"

        asker.request(target, writer=write, size=3, xfunction=XF_ASK,
                      on_reply=lambda f: seen.append(bytes(f.payload)))
        pump(cluster)
        assert seen == [b"ABC"]

    def test_a_slot_holds_one_request_and_the_newest_wins(self, asking):
        cluster, asker, target = asking
        seen = []
        for tag in (b"a", b"b", b"c"):
            asker.request(target, tag, xfunction=XF_ASK, slot="poll",
                          on_reply=lambda f: seen.append(bytes(f.payload)))
            assert asker.outstanding == 1
        pump(cluster)
        assert seen == [b"C"]
        assert asker.late_replies == 2  # the two superseded answers

    def test_a_request_on_a_reply_code_gets_the_failure_reply(self, asking):
        cluster, asker, _ = asking
        other = Asker("other", pump=cluster[0].step)
        cluster[1].install(other)
        failed, _ = other.ask(cluster[1].routes.create_proxy(0, asker.tid),
                              xfunction=XF_ASK)
        assert failed

    def test_failed_post_leaves_nothing_pending(self, asking):
        _, asker, target = asking

        def boom(view):
            raise RuntimeError("fill failed")

        with pytest.raises(RuntimeError):
            asker.request(target, writer=boom, size=4, xfunction=XF_ASK,
                          on_reply=lambda f: None)
        assert asker.outstanding == 0


# -- defect 1: a waiter must not step an executive it does not own ----------


def test_status_on_started_executives_steps_from_loop_threads_only(monkeypatch):
    cluster = make_loopback_cluster(2)
    ctl = HostController()
    cluster[0].install(ctl)
    steppers: dict[int, set[str]] = defaultdict(set)
    real_step = Executive.step

    def step(self):
        steppers[self.node].add(threading.current_thread().name)
        return real_step(self)

    monkeypatch.setattr(Executive, "step", step)
    for exe in cluster.values():
        exe.start()
    try:
        status = ctl.status(1)
    finally:
        for exe in cluster.values():
            exe.stop()
    assert status["node"] == "1"
    assert dict(steppers) == {0: {"executive-0"}, 1: {"executive-1"}}
    assert_no_leaks(cluster)


def test_threaded_wait_parks_on_the_reply_not_in_slices(monkeypatch):
    """Without a pump, a waiter on a started executive blocks untimed
    (up to the bound) on the reply ring: the one wait is the reply."""
    cluster = make_loopback_cluster(2)
    asker = Asker()
    cluster[0].install(asker)
    target = cluster[0].routes.create_proxy(1, cluster[1].install(Answerer()))
    timeouts: list[float | None] = []
    real_wait = threading.Event.wait

    def wait(self, timeout=None):
        timeouts.append(timeout)
        return real_wait(self, timeout)

    monkeypatch.setattr(threading.Event, "wait", wait)
    for exe in cluster.values():
        exe.start()
    try:
        answers = [asker.ask(target, b"ping%d" % i, xfunction=XF_ASK)
                   for i in range(20)]
    finally:
        for exe in cluster.values():
            exe.stop()
    assert answers == [(False, b"PING%d" % i) for i in range(20)]
    assert timeouts and min(t for t in timeouts if t is not None) > 1.0
    assert asker.outstanding == 0
    assert_no_leaks(cluster)


# -- defect 2: nothing grows while a peer stays silent ----------------------


def test_sweepers_stay_bounded_over_a_partition_and_resume_after_heal():
    network = LoopbackNetwork()
    cluster, wires = {}, {}
    for node in range(2):
        cluster[node] = Executive(node=node)
        wires[node] = FaultyLoopbackTransport(network, FaultPlan(), seed=node)
        PeerTransportAgent.attach(cluster[node]).register(
            wires[node], default=True
        )
    agent_tid = cluster[1].install(TelemetryAgent())
    watched_tid = cluster[1].install(Listener("watched"))
    collector, monitor = TelemetryCollector(), DaqMonitor()
    cluster[0].install(collector)
    cluster[0].install(monitor)
    collector.watch(1, cluster[0].routes.create_proxy(1, agent_tid))
    proxy = cluster[0].routes.create_proxy(1, watched_tid)
    monitor.watch(proxy)

    wires[0].partition(1)
    for _ in range(1000):
        collector.sweep()
        monitor.sweep()
        pump(cluster)
    assert collector.outstanding <= len(collector.watched)
    assert monitor.outstanding <= len(monitor.watched)
    assert not collector.node_metrics and not monitor.snapshots

    wires[0].heal()
    collector.sweep()
    monitor.sweep()
    pump(cluster)
    assert 1 in collector.node_metrics
    assert proxy in monitor.snapshots
    assert collector.outstanding == monitor.outstanding == 0
    assert_no_leaks(cluster)


def _controller(cluster):
    ctl = HostController()
    return ctl, ControlError, lambda: ctl.status(1)


def _discovery(cluster):
    disc = DiscoveryService(nodes=[0, 1])
    return disc, DiscoveryError, lambda: disc.refresh(1)


def _block(cluster):
    client = BlockClient()
    return client, BlockDeviceError, lambda: client.status(
        cluster[0].routes.create_proxy(1, cluster[1].install(Listener("deaf")))
    )


def _tape(cluster):
    client = SequentialClient()
    return client, I2OError, lambda: client.rewind(
        cluster[0].routes.create_proxy(1, cluster[1].install(Listener("deaf")))
    )


def _stub(cluster):
    stub = StubDevice()
    return stub, RemoteCallError, lambda: stub.call(
        cluster[0].routes.create_proxy(1, cluster[1].install(Listener("deaf"))),
        "anything",
    )


@pytest.mark.parametrize(
    "make", [_controller, _discovery, _block, _tape, _stub]
)
def test_timed_out_call_leaves_nothing_and_its_late_reply_is_counted(make):
    """Node 1 is not stepped while the client waits (no ``pump``), so
    the client truly times out; node 1 answers afterwards."""
    cluster = make_loopback_cluster(2)
    client, error, verb = make(cluster)
    cluster[0].install(client)
    client.max_pumps = 20
    with pytest.raises(error, match="no reply"):
        verb()
    assert client.outstanding == 0
    pump(cluster)  # now the peer answers — too late
    assert client.outstanding == 0
    assert client.late_replies == 1
    assert client.export_counters()["late_replies"] == 1
    assert_no_leaks(cluster)


# -- defect 3: a failure reply ends the wait at once ------------------------


class TestFailureReplyEndsDiscoveryAtOnce:
    @pytest.fixture
    def rig(self):
        cluster = make_loopback_cluster(2)
        rounds = []

        def pump_once():
            rounds.append(1)
            for exe in cluster.values():
                exe.step()

        discovery = DiscoveryService(nodes=[0, 1], pump=pump_once)
        cluster[0].install(discovery)
        assert discovery.max_pumps == 100_000  # the default, not shortened
        return cluster, discovery, rounds

    def test_unroutable_node(self, rig):
        _, discovery, rounds = rig
        with pytest.raises(DiscoveryError, match="failure reply"):
            discovery.refresh(77)
        assert len(rounds) <= 3

    def test_parked_node(self, rig):
        cluster, discovery, rounds = rig
        discovery.refresh(1)
        del rounds[:]
        cluster[0].routes.park_route(cluster[0].routes.routes_to(1)[0])
        with pytest.raises(DiscoveryError, match="failure reply"):
            discovery.refresh(1)
        assert len(rounds) <= 3
