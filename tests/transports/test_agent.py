"""The Peer Transport Agent: registration and route resolution."""

from __future__ import annotations

import pytest

from repro.core.executive import Executive
from repro.core.routes import Route
from repro.i2o.tid import PTA_TID
from repro.transports.agent import PeerTransportAgent
from repro.transports.base import PeerTransport, TransportError
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport

REMOTE_TID = 1
WIRE_TARGET_TID = 0x55
LOCAL_TARGET_TID = 99
INITIATOR_TID = 0


class FakePt(PeerTransport):
    def __init__(self, name: str) -> None:
        super().__init__(name=name, mode="polling")
        self.sent: list[tuple[int, int]] = []  # (node, wire_target)

    def transmit(self, frame, route) -> None:
        self.sent.append((route.node, frame.target))
        self._require_live().frame_free(frame)


@pytest.fixture
def exe_with_pta():
    exe = Executive(node=0)
    pta = PeerTransportAgent.attach(exe)
    return exe, pta


class TestRegistration:
    def test_attach_occupies_tid_one(self, exe_with_pta):
        exe, pta = exe_with_pta
        assert exe.device(PTA_TID) is pta
        assert exe.pta is pta

    def test_register_installs_transport_as_device(self, exe_with_pta):
        exe, pta = exe_with_pta
        pt = FakePt("x")
        pta.register(pt)
        assert pt.tid is not None
        assert exe.device(pt.tid) is pt

    def test_duplicate_name_rejected(self, exe_with_pta):
        _, pta = exe_with_pta
        pta.register(FakePt("dup"))
        with pytest.raises(TransportError):
            pta.register(FakePt("dup"))

    def test_foreign_transport_rejected(self, exe_with_pta):
        _, pta = exe_with_pta
        other = Executive(node=9)
        pt = FakePt("foreign")
        other.install(pt)
        with pytest.raises(TransportError, match="another executive"):
            pta.register(pt)

    def test_polling_pt_registered_with_executive(self, exe_with_pta):
        exe, pta = exe_with_pta
        pt = pta.register(FakePt("p"))
        assert pt in exe._pollable

    def test_transport_lookup(self, exe_with_pta):
        _, pta = exe_with_pta
        pt = pta.register(FakePt("named"))
        assert pta.transport("named") is pt
        with pytest.raises(TransportError):
            pta.transport("ghost")


class TestResolution:
    def test_default_transport(self, exe_with_pta):
        _, pta = exe_with_pta
        pt = pta.register(FakePt("only"), default=True)
        assert pta.resolve(Route(node=5, remote_tid=REMOTE_TID)) is pt

    def test_per_node_pin_beats_default(self, exe_with_pta):
        _, pta = exe_with_pta
        default = pta.register(FakePt("default"), default=True)
        pinned = pta.register(FakePt("pinned"), nodes=[7])
        assert pta.resolve(Route(node=7, remote_tid=REMOTE_TID)) is pinned
        assert pta.resolve(Route(node=8, remote_tid=REMOTE_TID)) is default

    def test_route_pin_beats_everything(self, exe_with_pta):
        _, pta = exe_with_pta
        pta.register(FakePt("default"), default=True)
        special = pta.register(FakePt("special"))
        route = Route(node=7, remote_tid=REMOTE_TID, transport="special")
        assert pta.resolve(route) is special

    def test_unknown_route_transport(self, exe_with_pta):
        _, pta = exe_with_pta
        pta.register(FakePt("a"), default=True)
        with pytest.raises(TransportError, match="unknown transport"):
            pta.resolve(Route(node=1, remote_tid=REMOTE_TID, transport="nope"))

    def test_no_transport_at_all(self, exe_with_pta):
        _, pta = exe_with_pta
        with pytest.raises(TransportError):
            pta.resolve(Route(node=1, remote_tid=REMOTE_TID))


class TestForwarding:
    def test_forward_rewrites_wire_target(self, exe_with_pta):
        exe, pta = exe_with_pta
        pt = pta.register(FakePt("x"), default=True)
        frame = exe.frame_alloc(0, target=LOCAL_TARGET_TID, initiator=INITIATOR_TID)
        pta.forward(frame, Route(node=3, remote_tid=WIRE_TARGET_TID))
        assert pt.sent == [(3, WIRE_TARGET_TID)]
        assert pta.forwarded == 1

    def test_failed_transmit_restores_target(self, exe_with_pta):
        """A transmit that raises before taking ownership must leave the
        frame exactly as the caller handed it over: original target,
        forwarded counter untouched — the executive retries or
        dead-letters with the caller's addressing intact."""
        exe, pta = exe_with_pta

        class RefusingPt(FakePt):
            def transmit(self, frame, route) -> None:
                raise TransportError("link down")

        pta.register(RefusingPt("bad"), default=True)
        frame = exe.frame_alloc(0, target=LOCAL_TARGET_TID, initiator=INITIATOR_TID)
        with pytest.raises(TransportError, match="link down"):
            pta.forward(frame, Route(node=3, remote_tid=WIRE_TARGET_TID))
        assert frame.target == LOCAL_TARGET_TID
        assert pta.forwarded == 0
        exe.frame_free(frame)
        exe.pool.check_conservation()

    def test_forward_to_suspended_raises(self, exe_with_pta):
        exe, pta = exe_with_pta
        pt = pta.register(FakePt("x"), default=True)
        pt.suspend()
        frame = exe.frame_alloc(0, target=LOCAL_TARGET_TID, initiator=INITIATOR_TID)
        with pytest.raises(TransportError, match="suspended"):
            pta.forward(frame, Route(node=3, remote_tid=WIRE_TARGET_TID))
        exe.frame_free(frame)
        pt.resume()
        frame2 = exe.frame_alloc(0, target=LOCAL_TARGET_TID, initiator=INITIATOR_TID)
        pta.forward(frame2, Route(node=3, remote_tid=WIRE_TARGET_TID))
        assert len(pt.sent) == 1

    def test_suspended_route_dead_letters_not_crashes(self):
        """End to end: executive turns the transport failure into a
        failure reply for the initiator."""
        net = LoopbackNetwork()
        exe = Executive(node=0)
        pta = PeerTransportAgent.attach(exe)
        pt = pta.register(LoopbackTransport(net), default=True)
        pt.suspend()
        from repro.core.device import Listener

        sender = Listener("s")
        exe.install(sender)
        failures = []
        sender.bind(0x1, lambda f: failures.append(f.is_failure))
        proxy = exe.routes.create_proxy(1, 0x20)
        sender.send(proxy, b"x", xfunction=0x1)
        exe.run_until_idle()
        assert failures == [True]
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0
