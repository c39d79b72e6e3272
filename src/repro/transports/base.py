"""The PeerTransport base class.

A peer transport is an ordinary device module (it has a TiD, answers
utility messages, is configured through UtilParamsSet) whose private
job is moving frames to other nodes.  Subclasses implement
:meth:`transmit`; the receive side funnels through :meth:`ingest_loaned`
(pool-block-first: the transport loans a block and writes the wire
bytes straight into it) or :meth:`ingest_block` (intra-process block
handoff, zero copies).  Both end in one ``frame-ingest`` fact, which
is where the simulation plane charges Table 1's ``pt_processing``
("Handling an incoming message in the GM PT accounts for most of the
time ... most of the PT processing time is spent in the frame
allocation", paper §5).

Copy accounting: every transport maintains ``tx_copies`` /
``rx_copies`` — the number of whole-frame payload copies it performed
on each side.  The X7 benchmark divides these by the frame counters to
gate the zero-copy guarantees (intra-process 0, wire exactly 1 per
node).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.device import Listener
from repro.flightrec.records import EV_FRAME_INGEST, pack3
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executive import Executive
    from repro.core.routes import Route
    from repro.mem.block import PoolBlock

#: A staged in-process delivery: either ``(src_node, block, frame_len)``
#: — the sender's pool block handed over wholesale (the receiver holds
#: the loan) — or ``(src_node, frame_bytes)`` for serialised data.
StagedItem = tuple


def _adopt(block: "PoolBlock", frame_len: int) -> Frame:
    """The wire door: the block's own frame, re-read by ``validate``
    within the ``frame_len`` bytes the wire delivered into ``block``."""
    return block.adopt(frame_len).validate(frame_len)


class TransportError(I2OError):
    """Transmission or reception failure in a peer transport."""


class PeerTransport(Listener):
    """Base class for all peer transports.

    ``mode`` selects the paper's two operation styles:

    * ``"polling"`` — the executive's loop calls :meth:`poll` every
      quantum (woken by :meth:`notify_staged`); it must never block;
    * ``"task"`` — received frames arrive asynchronously, not when the
      loop polls: from the PT's own thread (task-mode ``QueueTransport``),
      a simulation-plane process, or — for ``TcpTransport``, which owns
      no thread — a socket's readiness callback that the loop's epoll
      runs on the loop thread.
    """

    device_class = "peer_transport"
    #: Threaded PTs account traffic from their own receive threads and
    #: guard shared state with explicit locks, so the runtime affinity
    #: guard skips them; a PT that only the loop thread touches opts
    #: back in.
    affinity_exempt = True

    def __init__(self, name: str = "", mode: str = "polling") -> None:
        if mode not in ("polling", "task"):
            raise TransportError(f"unknown PT mode {mode!r}")
        super().__init__(name)
        self.mode = mode
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.tx_copies = 0
        self.rx_copies = 0
        self.suspended = False

    # -- subclass contract ---------------------------------------------------
    def transmit(self, frame: Frame, route: "Route") -> None:
        """Move ``frame`` to ``route.node``.

        The frame's ``target`` has already been rewritten to the
        receiver-local TiD by the PTA.  Ownership transfers only on
        success: if ``transmit`` raises, the frame (and its block)
        stay with the caller, so the PTA can restore the frame's
        original target and dead-letter it truthfully.  Once the send
        is committed the transport owns the block: it releases it
        (``frame_free``) when the bytes are on the wire, hands it to
        the peer executive (:meth:`make_handoff`), or holds the
        loan across an asynchronous completion.
        """
        raise NotImplementedError

    def poll(self) -> bool:
        """Polling mode: ingest pending data; True if anything arrived.

        Task-mode transports keep the default no-op (their thread
        delivers), so the executive may scan all PTs uniformly.
        """
        return False

    @property
    def has_pending(self) -> bool:
        """True when the next ``poll`` would ingest staged data: a
        ``start()``ed loop does not park while it is, and whoever
        stages data calls :meth:`notify_staged` afterwards."""
        return False

    def notify_staged(self) -> None:
        """Wake the executive that will ``poll`` what was just staged."""
        if self.executive is not None:
            self.executive.msgi.wake()

    def suspend(self) -> None:
        """Paper §4: it is "advisable ... to suspend other PTs during
        periods in which low latency communication is required"."""
        self.suspended = True

    def resume(self) -> None:
        self.suspended = False
        self.notify_staged()  # data may have been staged meanwhile

    def crash_detach(self) -> None:
        """Abandon the medium as a crashed node would: no draining, no
        farewells (``Executive.hard_stop``).  The base implementation
        only suspends; transports that hold staged pool blocks or a
        registration in a shared medium override this to release the
        blocks and leave the registry, so frames addressed to the dead
        node fail fast and a replacement transport can rejoin under
        the same node id."""
        self.suspended = True

    # -- shared receive path ---------------------------------------------------
    def ingest_loaned(
        self, src_node: int, block: "PoolBlock", view: memoryview
    ) -> Frame:
        """Validate and post the frame a transport copied off the wire
        (its one rx copy) into ``view`` of ``block``, which came from
        :meth:`Executive.block_loan` — the ``frame-alloc`` nested in
        Table 1's PT processing.  A failure returns the block."""
        exe = self._require_live()
        self.rx_copies += 1
        try:
            return self._post_ingested(exe, src_node, _adopt(block, len(view)))
        except BaseException:
            block.frame.block = None  # a freed block's frame is unloaned
            exe.block_return(block)
            raise

    def ingest_block(
        self, src_node: int, block: "PoolBlock", frame_len: int
    ) -> Frame:
        """Zero-copy receive: adopt a pool block handed over wholesale.

        Intra-process transports move the sender's block itself across
        executives (the paper's buffer-loaning, §4); the loan the staged
        item carried becomes the inbound frame's loan.  The
        header is trusted, not re-validated: this process built it
        through checked writes (DESIGN, "Trust boundaries"); a
        sanitized block re-checks it (:meth:`PoolBlock.adopt`).  On
        failure the block is released here.
        """
        exe = self._require_live()
        try:
            return self._post_ingested(exe, src_node, block.adopt(frame_len))
        except BaseException:
            block.frame.block = None
            block.release()
            raise

    def ingest_frame_bytes(self, src_node: int, frame_bytes) -> Frame:
        """Ingest a frame whose medium yields a byte string (the
        simulation planes' packet payloads): loan, copy in, post."""
        size = len(frame_bytes)
        block = self._require_live().block_loan(size)
        view = block.memory[:size]
        view[:] = frame_bytes
        return self.ingest_loaned(src_node, block, view)

    def _post_ingested(self, exe: "Executive", src_node: int, frame: Frame) -> Frame:
        frame.put_initiator(exe.routes.create_proxy(
            src_node, frame.initiator, transport=self.name
        ))
        self.frames_received += 1
        self.bytes_received += frame.total_size
        if exe.flightrec is not None:
            exe.flightrec.record(
                EV_FRAME_INGEST,
                frame.transaction_context,
                pack3(src_node, int(frame.target), frame.xfunction),
                frame.total_size,
            )
        exe.msgi.post_inbound(frame)  # what ``exe.post_inbound`` does
        return frame

    # -- intra-process staging helpers ----------------------------------------
    def make_handoff(self, frame: Frame) -> StagedItem:
        """Detach the frame's block for delivery to a peer executive.

        Returns a staged item carrying the block itself when the frame
        is pool-backed (the sender's loan travels with the item — zero
        copies), or the serialised bytes otherwise.  Caller has
        committed to delivery: the frame no longer owns its block.
        """
        exe = self._require_live()
        size = frame.total_size
        block = frame.block
        if block is not None:
            # The frame is the block's own: the receiver adopts it.
            frame.block = None  # ownership moves with the staged item
            return (exe.node, block, size)
        self.tx_copies += 1
        return (exe.node, frame.tobytes())

    def ingest_staged(self, item: StagedItem) -> Frame:
        """Deliver a staged item through the matching ingest path."""
        if len(item) == 3:
            return self.ingest_block(item[0], item[1], item[2])
        return self.ingest_frame_bytes(item[0], item[1])

    @staticmethod
    def release_staged(item: StagedItem) -> None:
        """Drop a staged item undelivered (fault injection, partition)."""
        if len(item) == 3:
            item[1].release()

    # -- shared transmit-side bookkeeping -----------------------------------
    def account_sent(self, nbytes: int) -> None:
        self.frames_sent += 1
        self.bytes_sent += nbytes

    def _require_live(self) -> "Executive":
        if self.executive is None:
            raise TransportError(f"peer transport {self.name!r} is not installed")
        return self.executive
