"""TCP transport over real localhost sockets."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.executive import Executive
from repro.transports.agent import PeerTransportAgent
from repro.transports.base import TransportError
from repro.transports.tcp import TcpTransport

from tests.transports.harness import Caller, Echo

REMOTE_TID = 5
INITIATOR_TID = 0

# Round-trip, burst, large-payload and counter semantics are covered
# for every transport by tests/transports/test_conformance.py; this
# module keeps only what is TCP-specific (socket learning, dialing).


@pytest.fixture
def tcp_cluster():
    """Two threaded executives joined by real TCP sockets."""
    exes, pts = {}, {}
    for node in range(2):
        exe = Executive(node=node)
        pt = TcpTransport(name="tcp")
        PeerTransportAgent.attach(exe).register(pt, default=True)
        exes[node], pts[node] = exe, pt
    # Exchange the ephemeral ports.
    pts[0].add_peer(1, "127.0.0.1", pts[1].bound_port)
    pts[1].add_peer(0, "127.0.0.1", pts[0].bound_port)
    for exe in exes.values():
        exe.start(poll_interval=0.001)
    yield exes, pts
    for exe in exes.values():
        exe.stop()
    for pt in pts.values():
        pt.shutdown()
    for exe in exes.values():
        exe.pool.check_conservation()


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestTcp:
    def test_reverse_path_learned_from_accepted_connection(self, tcp_cluster):
        """The reply comes back over the same socket the request used,
        even though node 1 never dialled node 0."""
        exes, pts = tcp_cluster
        pts[1].peers.clear()  # node 1 cannot dial out at all
        echo_tid = exes[1].install(Echo())
        caller = Caller()
        exes[0].install(caller)
        caller.send(exes[0].create_proxy(1, echo_tid), b"learned",
                    xfunction=0x1)
        assert wait_for(lambda: caller.replies == [b"learned"])

    def test_unconfigured_peer_raises(self):
        exe = Executive(node=0)
        pt = TcpTransport(name="tcp")
        PeerTransportAgent.attach(exe).register(pt, default=True)
        try:
            frame = exe.frame_alloc(0, target=REMOTE_TID,
                                    initiator=INITIATOR_TID)
            from repro.core.executive import Route

            with pytest.raises(TransportError, match="no TCP address"):
                pt.transmit(frame, Route(node=42, remote_tid=REMOTE_TID))
            exe.frame_free(frame)
        finally:
            pt.shutdown()

    def test_shutdown_of_a_connected_pair_is_prompt(self, tcp_cluster):
        # Regression: closing the listener did not wake accept() and
        # accepted sockets that lost the reverse-path race were never
        # closed, so shutdown() sat out its 2 s joins.
        exes, pts = tcp_cluster
        echo_tid = exes[1].install(Echo())
        caller = Caller()
        exes[0].install(caller)
        caller.send(exes[0].create_proxy(1, echo_tid), b"x", xfunction=0x1)
        assert wait_for(lambda: caller.replies == [b"x"])
        started = time.monotonic()
        for pt in pts.values():
            pt.shutdown()
        assert time.monotonic() - started < 0.5
        assert [
            t.name for t in threading.enumerate()
            if t.name in ("pt-tcp-accept", "pt-tcp-reader")
        ] == []
