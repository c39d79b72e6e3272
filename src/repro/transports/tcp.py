"""TCP peer transport.

The paper's benchmark setup ran *"another PT thread ... handling TCP
communication for configuration and control purposes"* alongside the
Myrinet/GM data PT — the classic control/data plane split.  This
transport provides that role in the native plane: real sockets on
localhost (or anywhere) and lazy outbound connections.  It owns no
thread: non-blocking sockets in the loop's epoll are serviced on the
loop thread.  It reports ``"task"`` mode (frames arrive on readiness,
not on ``poll``) and is not exempt from the affinity guard.

Both directions take the zero-copy path: transmit puts the frame's
pool buffer on the wire with vectored ``sendmsg`` (no serialisation
copy), and receive re-frames on the 12-byte wire header, loans the
receiving pool block first, and ``recv_into``s the frame straight into
it — exactly one copy per node, the one off the wire.
"""

from __future__ import annotations

import logging
import select
import socket
from collections import deque
from functools import partial
from typing import TYPE_CHECKING

from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.transports.base import PeerTransport, TransportError
from repro.transports.wire import WIRE_HEADER_SIZE, encode_wire_parts, parse_wire_header

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.routes import Route
    from repro.mem.block import PoolBlock

logger = logging.getLogger(__name__)


def _hang_up(sock: socket.socket) -> None:
    """Shut down then close, so the peer sees EOF at once."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()


class _Connection:
    """One socket's receive state (``got`` bytes of ``view``: the wire
    header, then the loaned block) and send backlog; loop thread only."""

    __slots__ = ("sock", "fd", "header", "got", "src", "block", "view", "backlog")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.header = memoryview(bytearray(WIRE_HEADER_SIZE))
        self.got = 0
        self.src = 0
        self.block: PoolBlock | None = None
        self.view = self.header
        #: ``(unsent header, unsent body, frame)``, oldest first; the
        #: frame is freed once its last byte is written
        self.backlog: deque[tuple[memoryview, memoryview, Frame]] = deque()


class TcpTransport(PeerTransport):
    """TCP endpoint serviced on the executive's loop thread.

    ``peers`` maps node id → ``(host, port)``.  The local endpoint
    listens on ``listen_port`` (0 = ephemeral; read ``bound_port``
    after install).  Connections are made lazily on first transmit and
    cached; an accepted connection also serves replies to the node
    whose frames arrive on it.
    """

    affinity_exempt = False

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
        #: node id -> the connection that reaches it
        self._conns: dict[int, _Connection] = {}
        #: fd -> every open connection, dialled or accepted
        self._open: dict[int, _Connection] = {}

    # -- lifecycle ------------------------------------------------------------
    def on_plugin(self) -> None:
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.listen_host, self.listen_port))
        server.listen(16)
        server.setblocking(False)
        self._server = server
        self.bound_port = server.getsockname()[1]
        self._require_live().msgi.watch(
            server.fileno(), partial(self._on_accept, server))

    def on_unplug(self) -> None:
        """The listener and every socket close, so no wire byte reaches
        this node, peers see EOF and their next send is refused, and a
        replacement can listen on the same port."""
        self.shutdown()
        super().on_unplug()

    def shutdown(self) -> None:
        """Close the listener and every socket.  The sockets belong to
        the loop thread: a ``start()``ed executive must ``stop()`` first."""
        exe = self.executive
        if exe is None:
            return  # never installed, or already unplugged: nothing is open
        if exe.stepped_elsewhere():
            raise TransportError(f"{self.name}: node {exe.node} runs its "
                                 "loop thread; stop() the executive first")
        for conn in list(self._open.values()):
            self._drop(conn)
        if self._server is not None:
            exe.msgi.unwatch(self._server.fileno())
            self._server.close()
            self._server = None

    def add_peer(self, node: int, host: str, port: int) -> None:
        self.peers[node] = (host, port)

    # -- transmit ---------------------------------------------------------------
    def transmit(self, frame: Frame, route: "Route") -> None:
        exe = self._require_live()
        conn = self._conns.get(route.node) or self._dial(route.node)
        # Scatter-gather: [wire header, frame's pool buffer] — no
        # serialisation copy.  Whatever the socket does not take now
        # waits in the backlog, and the block with it.
        header, body = encode_wire_parts(exe.node, frame)
        sent = 0
        if not conn.backlog:
            try:
                sent = conn.sock.sendmsg((header, body))
            except BlockingIOError:
                pass
            except OSError as exc:
                self._drop(conn)
                raise TransportError(
                    f"send to node {route.node} failed: {exc}") from exc
            if sent == WIRE_HEADER_SIZE + len(body):
                self.account_sent(len(body))
                exe.frame_free(frame)
                return  # the whole message in one call: the usual case
            exe.msgi.modify(conn.fd, select.EPOLLIN | select.EPOLLOUT)
        conn.backlog.append((memoryview(header)[sent:],
                             body[max(0, sent - WIRE_HEADER_SIZE):], frame))

    def _flush(self, conn: _Connection) -> None:
        """Write the backlog until the socket stops taking it."""
        backlog = conn.backlog
        while backlog:
            header, body, frame = backlog[0]
            sent = conn.sock.sendmsg((header, body))
            if sent < len(header) + len(body):
                backlog[0] = (header[sent:], body[max(0, sent - len(header)):], frame)
                return
            backlog.popleft()
            self.account_sent(len(body))
            self._require_live().frame_free(frame)
        self._require_live().msgi.modify(conn.fd, select.EPOLLIN)

    def _dial(self, node: int) -> _Connection:
        address = self.peers.get(node)
        if address is None:
            raise TransportError(f"no TCP address configured for node {node}")
        try:
            sock = socket.create_connection(address, timeout=5)
        except OSError as exc:
            raise TransportError(f"connect to node {node} {address}: {exc}") from exc
        self._conns[node] = conn = self._adopt(sock)
        return conn

    # -- receive ------------------------------------------------------------------
    def _on_accept(self, server: socket.socket, _mask: int) -> None:
        try:
            self._adopt(server.accept()[0])
        except OSError:
            pass  # the client gave up before we got to it

    def _adopt(self, sock: socket.socket) -> _Connection:
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Connection(sock)
        self._open[conn.fd] = conn
        self._require_live().msgi.watch(conn.fd, partial(self._on_ready, conn))
        return conn

    def _on_ready(self, conn: _Connection, mask: int) -> None:
        try:
            if mask & select.EPOLLOUT:
                self._flush(conn)
            if mask & ~select.EPOLLOUT:
                self._receive(conn)
        except BlockingIOError:
            pass  # readiness was stale; epoll reports it again
        except EOFError:
            self._drop(conn)  # orderly goodbye at a message boundary
        except (OSError, I2OError) as exc:  # hostile bytes, a dry pool
            logger.warning("%s: dropping connection: %s", self.name, exc)
            self._drop(conn)

    def _receive(self, conn: _Connection) -> None:
        """Read toward one frame: header, then body into a loaned block.
        Level-triggered epoll calls again for the next frame."""
        while True:
            view, got = conn.view, conn.got
            n = conn.sock.recv_into(view[got:] if got else view)
            if not n:
                if conn.block is not None:
                    raise TransportError("connection closed mid-frame")
                if got:  # EOF inside the header: the header check names it
                    parse_wire_header(view[:got])
                raise EOFError
            got += n
            if got < len(view):
                conn.got = got
                return
            conn.got = 0
            if conn.block is not None:
                block, conn.block, conn.view = conn.block, None, conn.header
                self.ingest_loaned(conn.src, block, view)
                return
            conn.src, length = parse_wire_header(view)
            # Learn the reverse path: an accepted connection can serve
            # replies to its originating node.
            self._conns.setdefault(conn.src, conn)
            block = conn.block = self._require_live().block_loan(length)
            conn.view = block.memory[:length]

    def _drop(self, conn: _Connection) -> None:
        """Close and forget ``conn`` (the peer sees EOF); its half-read
        block and unsent frames go back to the pool."""
        exe = self._require_live()
        exe.msgi.unwatch(conn.fd)
        del self._open[conn.fd]
        for node in [n for n, c in self._conns.items() if c is conn]:
            del self._conns[node]
        if conn.block is not None:
            exe.block_return(conn.block)
        for _header, _body, frame in conn.backlog:
            exe.frame_free(frame)
        _hang_up(conn.sock)
