"""TCP transport over real localhost sockets.

Every socket is serviced on the executive's loop thread, so each test
drives its executives as a program would: by stepping them, or by
``start()`` — never by reaching into a connection from another thread.
"""

from __future__ import annotations

import gc
import os
import socket
import struct
import threading
import time
from functools import partial

import pytest

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.core.routes import Route
from repro.i2o.frame import Frame
from repro.transports.agent import PeerTransportAgent
from repro.transports.base import TransportError
from repro.transports.tcp import TcpTransport
from repro.transports.wire import WIRE_MAGIC, encode_wire

from tests.transports.harness import (
    Caller,
    Echo,
    Keeper,
    dial_raw,
    hung_up,
    make_lone_tcp,
    step_until,
)

REMOTE_TID = 5
INITIATOR_TID = 0

# Round-trip, burst, large-payload and counter semantics are covered
# for every transport by tests/transports/test_conformance.py; this
# module keeps only what is TCP-specific (socket learning, dialing,
# re-framing a byte stream, back-pressure, closing what it opened).


def open_fds() -> int:
    gc.collect()  # earlier tests' garbage closes its fds now, not mid-count
    return len(os.listdir("/proc/self/fd"))


def tcp_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("pt-tcp")]


def tcp_pair() -> tuple[dict[int, Executive], dict[int, TcpTransport]]:
    """Two unstarted executives that know each other's TCP address."""
    exes, pts = {}, {}
    for node in range(2):
        exe = Executive(node=node)
        pt = TcpTransport(name="tcp")
        PeerTransportAgent.attach(exe).register(pt, default=True)
        exes[node], pts[node] = exe, pt
    pts[0].add_peer(1, "127.0.0.1", pts[1].bound_port)
    pts[1].add_peer(0, "127.0.0.1", pts[0].bound_port)
    return exes, pts


@pytest.fixture
def tcp_cluster():
    """Two started executives joined by real TCP sockets."""
    exes, pts = tcp_pair()
    threads = threading.active_count()
    for exe in exes.values():
        exe.start()
    # A started node runs its loop and nothing else: no accept or
    # reader thread.
    assert threading.active_count() == threads + 2
    yield exes, pts
    for exe in exes.values():
        exe.stop()
    for pt in pts.values():
        pt.shutdown()
    assert tcp_threads() == []
    for exe in exes.values():
        exe.pool.check_conservation()


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


def echo_once(exes, payload: bytes = b"x") -> tuple[Caller, int]:
    echo_tid = exes[1].install(Echo())
    caller = Caller()
    exes[0].install(caller)
    proxy = exes[0].routes.create_proxy(1, echo_tid)
    caller.send(proxy, payload, xfunction=0x1)
    assert wait_for(lambda: caller.replies == [payload])
    return caller, proxy


class TestTcp:
    def test_reverse_path_learned_from_accepted_connection(self, tcp_cluster):
        """The reply comes back over the same socket the request used,
        even though node 1 never dialled node 0."""
        exes, pts = tcp_cluster
        pts[1].peers.clear()  # node 1 cannot dial out at all
        echo_once(exes, b"learned")

    def test_unconfigured_peer_raises(self):
        exe = Executive(node=0)
        pt = TcpTransport(name="tcp")
        PeerTransportAgent.attach(exe).register(pt, default=True)
        try:
            frame = exe.frame_alloc(0, target=REMOTE_TID,
                                    initiator=INITIATOR_TID)
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
        echo_once(exes)
        started = time.monotonic()
        for exe in exes.values():
            exe.stop()
        for pt in pts.values():
            pt.shutdown()
        assert time.monotonic() - started < 0.5
        for exe in exes.values():
            assert exe.msgi.watched == {}  # listener and sockets closed

    def test_shutdown_of_a_started_node_is_refused_by_name(self, tcp_cluster):
        """The transport's sockets belong to the loop thread: another
        thread must stop() the executive before it shuts them down."""
        exes, pts = tcp_cluster
        echo_once(exes)
        with pytest.raises(TransportError, match=r"stop\(\) the executive first"):
            pts[1].shutdown()
        exes[1].stop()
        pts[1].shutdown()
        assert exes[1].msgi.watched == {}

    def test_hard_stop_closes_the_listener_and_every_socket(self, tcp_cluster):
        # Regression: a hard-stopped node kept accepting connections and
        # ingesting wire bytes into the dead executive's pool, and no
        # replacement could claim its port.
        exes, pts = tcp_cluster
        caller, proxy = echo_once(exes)
        dead_port = pts[1].bound_port

        exes[1].hard_stop()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", dead_port), timeout=1)
        # A replacement can listen on the dead node's port at once.
        reborn = Executive(node=1)
        reborn_pt = TcpTransport(name="tcp", listen_port=dead_port)
        PeerTransportAgent.attach(reborn).register(reborn_pt, default=True)
        reborn_pt.shutdown()

        # The survivor hears EOF and forgets the socket, so its next
        # send is refused naming the dead node — the sender gets a
        # failure reply — without waiting for a timeout.
        assert wait_for(lambda: 1 not in pts[0]._conns, timeout=1.0)
        started = time.monotonic()
        caller.send(proxy, b"", xfunction=0x2)
        assert wait_for(lambda: caller.failures == [True], timeout=1.0)
        assert time.monotonic() - started < 1.0

        exes[0].hard_stop()
        assert tcp_threads() == []
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
    exe, pt = make_lone_tcp()
    yield exe, pt
    pt.shutdown()
    exe.pool.check_conservation()
    assert exe.pool.in_flight == 0


def _forgotten(pt) -> bool:
    return not pt._open and not pt._conns


def _wire_frame(target: int, payload: bytes) -> bytes:
    frame = Frame.build(target=target, initiator=REMOTE_TID,
                        payload=payload, xfunction=0x1)
    return encode_wire(GHOST_NODE, frame)


def _dropped(caplog) -> list[str]:
    return [r.message for r in caplog.records if "dropping connection" in r.message]


class TestRefusedConnections:
    @pytest.mark.parametrize("hostile", [
        b"\xde\xad\xbe\xef" * 4,  # bad magic
        GHOST_HEADER + b"\xff" * 64,  # good header, bad frame
    ], ids=["bad-magic", "bad-frame"])
    def test_garbage_ends_in_eof_and_is_forgotten(
        self, lone_tcp, hostile, caplog
    ):
        exe, pt = lone_tcp
        with dial_raw(pt) as raw, caplog.at_level("WARNING"):
            raw.sendall(hostile)
            # EOF (b""), not silence: the refusing side hung up.
            assert step_until(exe, lambda: hung_up(raw))
            assert _forgotten(pt)
        assert exe.pool.in_flight == 0
        assert exe.msgi.idle
        assert len(_dropped(caplog)) == 1
        # Nothing is sent where nobody reads: node 7 has no address, so
        # the next transmit is refused by name instead of vanishing.
        frame = exe.frame_alloc(0, target=REMOTE_TID, initiator=INITIATOR_TID)
        with pytest.raises(TransportError, match="no TCP address"):
            pt.transmit(frame, Route(node=GHOST_NODE, remote_tid=REMOTE_TID))
        exe.frame_free(frame)

    def test_eof_mid_frame_is_forgotten(self, lone_tcp, caplog):
        exe, pt = lone_tcp
        raw = dial_raw(pt)
        raw.sendall(GHOST_HEADER + b"\x00" * 10)
        # The header was accepted: the frame's block is on loan.
        assert step_until(exe, lambda: exe.pool.in_flight == 1)
        raw.close()
        with caplog.at_level("WARNING"):
            assert step_until(exe, lambda: _forgotten(pt))
        assert exe.pool.in_flight == 0  # the half-filled block came back
        assert "closed mid-frame" in _dropped(caplog)[0]

    def test_eof_mid_header_is_a_frame_format_error(self, lone_tcp, caplog):
        exe, pt = lone_tcp
        with dial_raw(pt) as raw, caplog.at_level("WARNING"):
            raw.sendall(GHOST_HEADER[:5])
            raw.shutdown(socket.SHUT_WR)
            assert step_until(exe, lambda: hung_up(raw))
        assert _forgotten(pt)
        assert exe.pool.in_flight == 0
        assert ["mid wire header" in m for m in _dropped(caplog)] == [True]

    def test_connect_close_cycles_leave_nothing_behind(self, lone_tcp):
        exe, pt = lone_tcp
        exe.step()  # the first step opens the loop's epoll and bell
        fds = open_fds()
        for _ in range(100):
            with dial_raw(pt) as raw:
                raw.shutdown(socket.SHUT_WR)  # a clean goodbye ...
                assert step_until(exe, partial(hung_up, raw))  # ... answered
            assert _forgotten(pt)
        assert open_fds() == fds
        assert list(exe.msgi.watched) == [pt._server.fileno()]

    def test_two_frames_in_one_write_are_both_delivered(self, lone_tcp):
        exe, pt = lone_tcp
        keeper = Keeper()
        tid = exe.install(keeper)
        with dial_raw(pt) as raw:
            raw.sendall(_wire_frame(tid, b"first") + _wire_frame(tid, b"second"))
            assert step_until(exe, lambda: len(keeper.payloads) == 2)
        assert keeper.payloads == [b"first", b"second"]

    def test_transmit_after_the_peer_refused_us_reconnects(self, tcp_cluster):
        """A dropped connection leaves node 0's table: the next send
        dials again instead of writing into a dead socket."""
        exes, pts = tcp_cluster
        caller, proxy = echo_once(exes, b"one")
        # Node 1 drops the connection, as it would after hostile bytes —
        # on its own terms: stopped, so this thread may touch its state.
        exes[1].stop()
        pts[1]._drop(pts[1]._conns[0])
        exes[1].start()
        assert wait_for(lambda: 1 not in pts[0]._conns, timeout=1.0)
        caller.send(proxy, b"two", xfunction=0x1)
        assert wait_for(lambda: caller.replies == [b"one", b"two"])

    def test_a_dialled_socket_has_no_idle_timeout(self, tcp_cluster, monkeypatch):
        # Regression: create_connection's *connect* timeout stayed on
        # the socket, so after that much silence the dialling side
        # stopped receiving and every later reply was lost.  A 50 ms
        # connect timeout stands in for the real 5 s.
        connect = socket.create_connection
        monkeypatch.setattr(socket, "create_connection",
                            lambda address, timeout=None: connect(address, 0.05))
        exes, _pts = tcp_cluster
        caller, proxy = echo_once(exes, b"before")
        time.sleep(0.2)
        caller.send(proxy, b"after", xfunction=0x1)
        assert wait_for(lambda: caller.replies == [b"before", b"after"])


# -- back-pressure: a full socket never blocks the loop --------------------------
FLOOD_FRAMES = 200
FLOOD_SIZE = 200 * 1024


class Flooder(Listener):
    """On a kick (0x3) sends ``FLOOD_FRAMES`` frames of ``FLOOD_SIZE``
    bytes to ``peer`` (0x4); counts the intact ones it receives."""

    def __init__(self):
        super().__init__("flooder")
        self.peer = 0
        self.received = 0

    def on_plugin(self):
        self.bind(0x3, self._kick)
        self.bind(0x4, self._count)

    def _kick(self, frame):
        payload = bytes([self.executive.node + 1]) * FLOOD_SIZE
        for _ in range(FLOOD_FRAMES):
            self.send(self.peer, payload, xfunction=0x4)

    def _count(self, frame):
        if frame.payload_size == FLOOD_SIZE and frame.payload[-1] != 0:
            self.received += 1


def test_two_nodes_flooding_each_other_both_finish():
    """Each loop both sends and receives: a send the socket cannot take
    waits in the backlog while the loop keeps reading, so neither node
    waits for the other to read."""
    exes, pts = tcp_pair()
    flooders = {node: Flooder() for node in exes}
    tids = {node: exes[node].install(f) for node, f in flooders.items()}
    for node, flooder in flooders.items():
        flooder.peer = exes[node].routes.create_proxy(1 - node, tids[1 - node])
    for node, exe in exes.items():
        exe.frame_send(exe.frame_alloc(0, target=tids[node], xfunction=0x3))
    started = time.monotonic()
    for exe in exes.values():
        exe.start()
    try:
        assert wait_for(lambda: all(
            f.received == FLOOD_FRAMES for f in flooders.values()), timeout=5.0)
        assert time.monotonic() - started < 5.0
    finally:
        for exe in exes.values():
            exe.stop()
        for pt in pts.values():
            pt.shutdown()
    for node, exe in exes.items():
        assert pts[node].frames_sent == FLOOD_FRAMES
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0


# -- every fd opened is closed again ----------------------------------------------
@pytest.mark.parametrize("ending", ["stop-shutdown", "hard-stop"])
def test_a_tcp_pair_gives_back_every_fd(ending):
    fds = open_fds()
    exes, pts = tcp_pair()
    for exe in exes.values():
        exe.start()
    echo_once(exes)
    for node, exe in exes.items():
        if ending == "hard-stop":
            exe.hard_stop()
        else:
            exe.stop()
            pts[node].shutdown()
    assert open_fds() == fds
