"""Queue-pair transport for threaded (native-plane) executives.

Two executives running in their own threads exchange staged deliveries
through a pair of thread-safe queues — the software analogue of the
inbound/outbound hardware FIFOs of paper figure 2.  What travels on
the queue is the sender's *pool block* itself (buffer loaning, zero
copies); the block's loan state is guarded by its allocator's lock, so
the cross-thread handoff is safe.  Supports both PT operation modes:

* **polling** — the executive's loop drains the receive queue each
  quantum (non-blocking); a transmit wakes the receiving loop;
* **task** — the PT runs a reader thread that blocks on the queue and
  posts frames the moment they arrive, like the paper's Myrinet/GM PT
  which "ran as a thread".
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING

from repro.i2o.frame import Frame
from repro.transports.base import PeerTransport, TransportError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.routes import Route


class QueuePair:
    """A bidirectional channel: two unbounded FIFO queues
    (``SimpleQueue``: the C-implemented one, no per-call mutex and
    condition variables in Python)."""

    def __init__(self, node_a: int, node_b: int) -> None:
        if node_a == node_b:
            raise TransportError("queue pair endpoints must differ")
        self.nodes = (node_a, node_b)
        self._queues: dict[int, queue.SimpleQueue[object]] = {
            node_a: queue.SimpleQueue(),
            node_b: queue.SimpleQueue(),
        }
        #: node -> the endpoint plugged in there, which drains its
        #: queue: a transmit toward a node with none fails, and one
        #: toward a polling endpoint wakes its loop (a task-mode reader
        #: wakes itself)
        self.endpoints: dict[int, "QueueTransport"] = {}

    def receive_queue(self, node: int) -> "queue.SimpleQueue[object]":
        q = self._queues.get(node)
        if q is None:
            raise TransportError(f"node {node} is not an endpoint")
        return q


class QueueTransport(PeerTransport):
    """One endpoint of a :class:`QueuePair`."""

    def __init__(
        self,
        pair: QueuePair,
        name: str = "queue",
        mode: str = "polling",
        *,
        artificial_delay_s: float = 0.0,
    ) -> None:
        super().__init__(name=name, mode=mode)
        self.pair = pair
        #: deliberately slows ``poll``/reads — used by the X1 bench to
        #: reproduce the paper's "a slow PT ... would negate the
        #: benefits" claim about mixing PTs in polling mode.
        self.artificial_delay_s = artificial_delay_s
        self._rx: "queue.SimpleQueue[object] | None" = None
        self._reader: threading.Thread | None = None
        self._stop = threading.Event()

    def on_plugin(self) -> None:
        exe = self._require_live()
        if exe.node not in self.pair.nodes:
            raise TransportError(
                f"executive node {exe.node} is not an endpoint of this pair"
            )
        self._rx = self.pair.receive_queue(exe.node)
        self.pair.endpoints[exe.node] = self
        if self.mode == "task":
            self._stop.clear()
            self._reader = threading.Thread(
                target=self._reader_loop, name=f"pt-{self.name}", daemon=True
            )
            self._reader.start()

    def on_unplug(self) -> None:
        """Leave the pair (a later send here fails), stop the reader,
        and return every block still staged in the queue."""
        self.pair.endpoints = {
            node: ep for node, ep in self.pair.endpoints.items() if ep is not self}
        self.shutdown()
        while self._rx is not None and not self._rx.empty():
            # ``or ()``: a shutdown sentinel releases nothing
            self.release_staged(self._rx.get_nowait() or ())
        super().on_unplug()

    def shutdown(self) -> None:
        if self._reader is not None:
            self._stop.set()
            # Unblock the reader with a sentinel.
            assert self._rx is not None
            self._rx.put(None)
            self._reader.join(timeout=5)
            self._reader = None

    # -- transmit ---------------------------------------------------------
    def transmit(self, frame: Frame, route: "Route") -> None:
        # Resolve the peer before taking ownership of the frame, so an
        # unreachable one leaves it with the caller.
        dest = self.pair.endpoints.get(route.node)
        if dest is None:
            raise TransportError(f"node {route.node} has no queue endpoint")
        dest._rx.put(self.make_handoff(frame))  # type: ignore[union-attr]
        if dest.mode == "polling":
            dest.notify_staged()

    # -- receive: polling mode ----------------------------------------------
    def poll(self) -> bool:
        if self._rx is None or self.mode != "polling" or self.suspended:
            return False
        if self.artificial_delay_s:
            # A deliberately slow poll (e.g. a select() on a TCP socket
            # in the paper's warning about polling-mode mixing).
            time.sleep(self.artificial_delay_s)
        # The poller is this queue's one consumer, so a non-empty queue
        # stays non-empty until ``get_nowait``: no ``queue.Empty`` is
        # raised to end a drain.
        got = False
        rx, ingest = self._rx, self.ingest_staged
        while not rx.empty():
            item = rx.get_nowait()
            if item is None:  # shutdown sentinel
                continue
            got = True
            ingest(item)
        return got

    @property
    def has_pending(self) -> bool:
        return (
            self.mode == "polling"
            and self._rx is not None
            and not self._rx.empty()
            and not self.suspended
        )

    # -- receive: task mode -------------------------------------------------
    def _reader_loop(self) -> None:
        assert self._rx is not None
        while not self._stop.is_set():
            item = self._rx.get()
            if item is None:  # shutdown sentinel
                continue
            if self.artificial_delay_s:
                time.sleep(self.artificial_delay_s)
            self.ingest_staged(item)
