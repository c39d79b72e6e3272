"""TCP peer transport.

The paper's benchmark setup ran *"another PT thread ... handling TCP
communication for configuration and control purposes"* alongside the
Myrinet/GM data PT — the classic control/data plane split.  This
transport provides that role in the native plane: real sockets on
localhost (or anywhere), lazy outbound connections, and a task-mode
accept/reader thread per peer.

Both directions take the zero-copy path: transmit puts the frame's
pool buffer on the wire with vectored ``sendmsg`` (no serialisation
copy), and receive re-frames on the 12-byte wire header, allocates the
receiving pool block first, and ``recv_into``s the frame straight into
it — exactly one copy per node, the one off the wire.
"""

from __future__ import annotations

import logging
import socket
import threading
from typing import TYPE_CHECKING

from repro.i2o.errors import FrameFormatError
from repro.i2o.frame import Frame
from repro.transports.base import PeerTransport, TransportError
from repro.transports.wire import (
    WIRE_HEADER_SIZE,
    encode_wire_parts,
    read_wire_header,
    recv_into_exact,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executive import Route

logger = logging.getLogger(__name__)


def _sendmsg_all(sock: socket.socket, parts: tuple, total: int) -> None:
    """Vectored send of all ``total`` bytes of ``parts``, looping on
    partial writes."""
    sent = sock.sendmsg(parts)
    if sent == total:
        return  # the whole message in one call: the usual case
    views = [memoryview(p) for p in parts]
    while True:
        while sent:
            if sent >= len(views[0]):
                sent -= len(views[0])
                views.pop(0)
            else:
                views[0] = views[0][sent:]
                sent = 0
        if not views:
            return
        sent = sock.sendmsg(views)


def _hang_up(sock: socket.socket) -> None:
    """Shut down then close: wakes any thread blocked on ``sock``."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class TcpTransport(PeerTransport):
    """Task-mode TCP endpoint.

    ``peers`` maps node id → ``(host, port)``.  The local endpoint
    listens on ``listen_port`` (0 = ephemeral; read ``bound_port``
    after install).  Connections are made lazily on first transmit and
    cached; each accepted or initiated socket gets a reader thread.
    """

    def __init__(
        self,
        name: str = "tcp",
        *,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        peers: dict[int, tuple[str, int]] | None = None,
    ) -> None:
        super().__init__(name=name, mode="task")
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.peers: dict[int, tuple[str, int]] = dict(peers or {})
        self.bound_port: int | None = None
        self._server: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: dict[int, socket.socket] = {}
        #: every socket with a reader thread — including accepted ones
        #: that lost the ``_conns`` reverse-path race — so shutdown can
        #: wake each reader out of ``recv``
        self._socks: list[socket.socket] = []
        self._conn_lock = threading.Lock()
        self._readers: list[threading.Thread] = []
        #: readers that took themselves off ``_readers`` but may still
        #: be running: shutdown joins these too, so none outlives it
        self._leaving: list[threading.Thread] = []
        self._stop = threading.Event()

    # -- lifecycle ------------------------------------------------------------
    def on_plugin(self) -> None:
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.listen_host, self.listen_port))
        server.listen(16)
        self._server = server
        self.bound_port = server.getsockname()[1]
        self._stop.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"pt-{self.name}-accept", daemon=True
        )
        self._accept_thread.start()

    def on_unplug(self) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        self._stop.set()
        if self._server is not None:
            # Closing a listener does not wake accept() on Linux;
            # shutting it down does.
            _hang_up(self._server)
            self._server = None
        if self._accept_thread is not None:
            # Joined first, so no reader is spawned behind our back.
            self._accept_thread.join(timeout=2)
            self._accept_thread = None
        with self._conn_lock:
            socks, self._socks = self._socks, []
            self._conns.clear()
            readers = self._readers + self._leaving
            self._leaving = []
        for sock in socks:
            _hang_up(sock)
        for reader in readers:
            reader.join(timeout=2)

    def crash_detach(self) -> None:
        """Die abruptly: the listener and every socket close and the
        accept and reader threads end, so no wire byte reaches the dead
        executive, peers see EOF and their next send is refused, and a
        replacement can listen on the same port."""
        self.shutdown()
        super().crash_detach()

    def add_peer(self, node: int, host: str, port: int) -> None:
        self.peers[node] = (host, port)

    # -- transmit ---------------------------------------------------------------
    def transmit(self, frame: Frame, route: "Route") -> None:
        exe = self._require_live()
        sock = self._connection_to(route.node)
        # Scatter-gather: [wire header, frame's pool buffer].  The
        # frame stays with the caller until the send succeeds, then the
        # block is released — no serialisation copy on this side.
        parts = encode_wire_parts(exe.node, frame)
        try:
            _sendmsg_all(sock, parts, WIRE_HEADER_SIZE + frame.total_size)
        except OSError as exc:
            self._drop_connection(route.node)
            raise TransportError(f"send to node {route.node} failed: {exc}") from exc
        self.account_sent(frame.total_size)
        exe.frame_free(frame)

    def _connection_to(self, node: int) -> socket.socket:
        with self._conn_lock:
            sock = self._conns.get(node)
            if sock is not None:
                return sock
        address = self.peers.get(node)
        if address is None:
            raise TransportError(f"no TCP address configured for node {node}")
        try:
            sock = socket.create_connection(address, timeout=5)
        except OSError as exc:
            raise TransportError(f"connect to node {node} {address}: {exc}") from exc
        sock.settimeout(None)  # 5 s bounds the connect, not an idle reader
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._conn_lock:
            self._conns[node] = sock
        self._spawn_reader(sock)
        return sock

    def _drop_connection(self, node: int) -> None:
        with self._conn_lock:
            sock = self._conns.pop(node, None)
        if sock is not None:
            _hang_up(sock)  # its reader wakes and forgets it

    # -- receive ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._server is not None
        while not self._stop.is_set():
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return  # socket closed during shutdown
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._spawn_reader(conn)

    def _spawn_reader(self, sock: socket.socket) -> None:
        reader = threading.Thread(
            target=self._reader_loop,
            args=(sock,),
            name=f"pt-{self.name}-reader",
            daemon=True,
        )
        # Spawned from both the accept thread and (lazily, on first
        # transmit) the dispatch thread; shutdown() joins the list.
        # Listed before it runs, so its exit always finds itself.
        with self._conn_lock:
            self._leaving = [r for r in self._leaving if r.is_alive()]
            self._readers.append(reader)
            self._socks.append(sock)
            reader.start()

    def _reader_loop(self, sock: socket.socket) -> None:
        recv_into = sock.recv_into
        header = memoryview(bytearray(WIRE_HEADER_SIZE))
        conns = self._conns

        def fill(view: memoryview) -> None:
            if not recv_into_exact(recv_into, view):
                raise TransportError("connection closed mid-frame")

        try:
            while not self._stop.is_set():
                parsed = read_wire_header(recv_into, header)
                if parsed is None:
                    return  # orderly shutdown at a message boundary
                src_node, frame_len = parsed
                if src_node not in conns:
                    # Learn the reverse path: an accepted connection
                    # can serve replies to its originating node.
                    with self._conn_lock:
                        conns.setdefault(src_node, sock)
                self.ingest_into(src_node, frame_len, fill)
        except (OSError, TransportError, FrameFormatError) as exc:
            if not self._stop.is_set():
                logger.warning("%s: dropping connection: %s", self.name, exc)
        finally:
            # Whatever ended the reader, nobody reads this socket any
            # more: the peer must see EOF and no send may go to it.
            with self._conn_lock:
                for node in [n for n, s in conns.items() if s is sock]:
                    del conns[node]
                if sock in self._socks:
                    self._socks.remove(sock)
                # Off the list, yet still running until it returns: a
                # shutdown that starts now (this reader was woken by
                # the peer's) must still join it.
                self._readers.remove(threading.current_thread())
                self._leaving.append(threading.current_thread())
            _hang_up(sock)
