"""Multiple peer transports in parallel (paper §4's multi-rail claim)
and transport-swapping transparency (the flexibility requirement)."""

from __future__ import annotations

import pytest

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport
from repro.transports.queued import QueuePair, QueueTransport


class Echo(Listener):
    def on_plugin(self):
        self.bind(0x1, self._h)

    def _h(self, frame):
        if not frame.is_reply:
            self.reply(frame, frame.payload)


class Caller(Listener):
    def __init__(self, name="caller"):
        super().__init__(name)
        self.replies = []

    def on_plugin(self):
        self.bind(0x1, lambda f: self.replies.append(bytes(f.payload))
                  if f.is_reply else None)


def drive(exes, want, caller, rounds=2000):
    for _ in range(rounds):
        for exe in exes:
            exe.step()
        if len(caller.replies) >= want:
            return
    raise AssertionError(f"only {len(caller.replies)}/{want} replies")


class TestTwoRails:
    def build(self):
        """Node pair connected by BOTH a loopback and a queue rail."""
        net = LoopbackNetwork()
        pair = QueuePair(0, 1)
        exes = []
        for node in range(2):
            exe = Executive(node=node)
            pta = PeerTransportAgent.attach(exe)
            pta.register(LoopbackTransport(net, name="rail0"), default=True)
            pta.register(QueueTransport(pair, name="rail1"))
            exes.append(exe)
        return exes

    def test_routes_pin_traffic_to_rails(self):
        exes = self.build()
        echo_tid = exes[1].install(Echo())
        caller = Caller()
        exes[0].install(caller)
        via0 = exes[0].routes.create_proxy(1, echo_tid, transport="rail0")
        via1 = exes[0].routes.create_proxy(1, echo_tid, transport="rail1")
        assert via0 != via1  # distinct proxies for distinct routes
        caller.send(via0, b"on rail0", xfunction=0x1)
        caller.send(via1, b"on rail1", xfunction=0x1)
        drive(exes, 2, caller)
        assert sorted(caller.replies) == [b"on rail0", b"on rail1"]
        pt0 = exes[0].pta.transport("rail0")
        pt1 = exes[0].pta.transport("rail1")
        assert pt0.frames_sent == 1
        assert pt1.frames_sent == 1

    def test_both_rails_carry_load_concurrently(self):
        exes = self.build()
        echo_tid = exes[1].install(Echo())
        caller = Caller()
        exes[0].install(caller)
        via0 = exes[0].routes.create_proxy(1, echo_tid, transport="rail0")
        via1 = exes[0].routes.create_proxy(1, echo_tid, transport="rail1")
        for i in range(10):
            caller.send(via0 if i % 2 else via1, str(i).encode(),
                        xfunction=0x1)
        drive(exes, 10, caller)
        assert len(caller.replies) == 10
        assert exes[0].pta.transport("rail0").frames_sent == 5
        assert exes[0].pta.transport("rail1").frames_sent == 5


class TestTransportTransparency:
    """Paper §2: 'It should not be necessary to modify an application
    in case some hardware component is exchanged.'  The same devices
    run over different wires with zero changes."""

    @pytest.mark.parametrize("wire", ["loopback", "queue"])
    def test_same_application_over_different_wires(self, wire):
        if wire == "loopback":
            net = LoopbackNetwork()
            make_pt = lambda node: LoopbackTransport(net)
        else:
            pair = QueuePair(0, 1)
            make_pt = lambda node: QueueTransport(pair)
        exes = []
        for node in range(2):
            exe = Executive(node=node)
            PeerTransportAgent.attach(exe).register(make_pt(node),
                                                    default=True)
            exes.append(exe)
        echo_tid = exes[1].install(Echo())
        caller = Caller()
        exes[0].install(caller)
        caller.send(exes[0].routes.create_proxy(1, echo_tid), b"same code",
                    xfunction=0x1)
        drive(exes, 1, caller)
        assert caller.replies == [b"same code"]
