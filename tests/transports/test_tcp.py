"""TCP transport over real localhost sockets."""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.core.executive import Executive, Route
from repro.transports.agent import PeerTransportAgent
from repro.transports.base import TransportError
from repro.transports.tcp import TcpTransport
from repro.transports.wire import WIRE_MAGIC

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
        exe.start()
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

    def test_hard_stop_closes_the_listener_and_every_socket(self, tcp_cluster):
        # Regression: a hard-stopped node kept accepting connections and
        # its reader threads kept ingesting wire bytes into the dead
        # executive's pool, and no replacement could claim its port.
        exes, pts = tcp_cluster
        echo_tid = exes[1].install(Echo())
        caller = Caller()
        exes[0].install(caller)
        caller.send(exes[0].create_proxy(1, echo_tid), b"x", xfunction=0x1)
        assert wait_for(lambda: caller.replies == [b"x"])
        dead_port = pts[1].bound_port
        dead_threads = [pts[1]._accept_thread, *pts[1]._readers]
        assert len(dead_threads) == 2  # accept + the reader of node 0's dial

        exes[1].hard_stop()
        assert [t.name for t in dead_threads if t.is_alive()] == []
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", dead_port), timeout=1)

        # The survivor hears EOF, forgets the socket, and its next send
        # is refused naming the dead node, without waiting for a timeout.
        assert wait_for(lambda: 1 not in pts[0]._conns, timeout=1.0)
        frame = exes[0].frame_alloc(0, target=REMOTE_TID, initiator=INITIATOR_TID)
        started = time.monotonic()
        with pytest.raises(TransportError, match="connect to node 1"):
            pts[0].transmit(frame, Route(node=1, remote_tid=echo_tid))
        assert time.monotonic() - started < 1.0
        exes[0].frame_free(frame)

        exes[0].hard_stop()
        assert [
            t.name for t in threading.enumerate() if t.name.startswith("pt-tcp")
        ] == []
        for exe in exes.values():
            exe.pool.check_conservation()
            assert exe.pool.in_flight == 0


# -- a refused or dead connection is closed and forgotten ------------------------
GHOST_NODE = 7
#: a valid wire header announcing a 64-byte frame from node 7
GHOST_HEADER = struct.pack("<III", WIRE_MAGIC, GHOST_NODE, 64)


@pytest.fixture
def lone_tcp():
    """One unstarted executive with a listening TCP transport."""
    exe = Executive(node=0)
    pt = TcpTransport(name="tcp")
    PeerTransportAgent.attach(exe).register(pt, default=True)
    yield exe, pt
    pt.shutdown()
    exe.pool.check_conservation()


def _dial(pt) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", pt.bound_port), timeout=1)
    sock.settimeout(1.0)
    return sock


def _forgotten(pt) -> bool:
    return not pt._socks and not pt._readers and not pt._conns


class TestRefusedConnections:
    @pytest.mark.parametrize("hostile", [
        b"\xde\xad\xbe\xef" * 4,  # bad magic
        GHOST_HEADER + b"\xff" * 64,  # good header, bad frame
    ], ids=["bad-magic", "bad-frame"])
    def test_garbage_ends_in_eof_and_is_forgotten(
        self, lone_tcp, hostile, caplog
    ):
        exe, pt = lone_tcp
        with _dial(pt) as raw, caplog.at_level("WARNING"):
            raw.sendall(hostile)
            # EOF (b""), not a 1 s timeout: the refusing side hung up.
            assert raw.recv(1) == b""
            assert wait_for(lambda: _forgotten(pt), timeout=1.0)
        assert exe.pool.in_flight == 0
        assert exe.msgi.idle
        dropped = [r for r in caplog.records if "dropping connection" in r.message]
        assert len(dropped) == 1
        # Nothing is sent where nobody reads: node 7 has no address, so
        # the next transmit is refused by name instead of vanishing.
        frame = exe.frame_alloc(0, target=REMOTE_TID, initiator=INITIATOR_TID)
        with pytest.raises(TransportError, match="no TCP address"):
            pt.transmit(frame, Route(node=GHOST_NODE, remote_tid=REMOTE_TID))
        exe.frame_free(frame)

    def test_eof_mid_frame_is_forgotten(self, lone_tcp):
        exe, pt = lone_tcp
        raw = _dial(pt)
        raw.sendall(GHOST_HEADER + b"\x00" * 10)
        assert wait_for(lambda: GHOST_NODE in pt._conns, timeout=1.0)
        raw.close()
        assert wait_for(lambda: _forgotten(pt), timeout=1.0)
        assert exe.pool.in_flight == 0

    def test_connect_close_cycles_leave_nothing_behind(self, lone_tcp):
        _exe, pt = lone_tcp
        for _ in range(100):
            with _dial(pt) as raw:
                raw.shutdown(socket.SHUT_WR)  # a clean goodbye ...
                assert raw.recv(1) == b""  # ... is answered with one
            assert len(pt._readers) <= 2 and len(pt._socks) <= 2
        assert wait_for(lambda: _forgotten(pt), timeout=1.0)

    def test_transmit_after_the_peer_refused_us_reconnects(self, tcp_cluster):
        """A reader that exits takes its socket out of ``_conns``: the
        next send dials again instead of writing into a dead socket."""
        exes, pts = tcp_cluster
        echo_tid = exes[1].install(Echo())
        caller = Caller()
        exes[0].install(caller)
        proxy = exes[0].create_proxy(1, echo_tid)
        caller.send(proxy, b"one", xfunction=0x1)
        assert wait_for(lambda: caller.replies == [b"one"])
        first = pts[0]._conns[1]
        # Node 1 drops the connection (as it would after hostile bytes).
        pts[1]._drop_connection(0)
        assert wait_for(lambda: pts[0]._conns.get(1) is not first, timeout=1.0)
        caller.send(proxy, b"two", xfunction=0x1)
        assert wait_for(lambda: caller.replies == [b"one", b"two"])

    def test_a_dialled_socket_has_no_idle_timeout(self, tcp_cluster):
        # Regression: create_connection's 5 s *connect* timeout stayed
        # on the socket, so the dialling side's reader died after 5 s
        # of silence and every later reply was lost.
        exes, pts = tcp_cluster
        echo_tid = exes[1].install(Echo())
        caller = Caller()
        exes[0].install(caller)
        caller.send(exes[0].create_proxy(1, echo_tid), b"x", xfunction=0x1)
        assert wait_for(lambda: caller.replies == [b"x"])
        assert pts[0]._conns[1].gettimeout() is None
