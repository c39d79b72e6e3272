"""The PeerTransport base class.

A peer transport is an ordinary device module (it has a TiD, answers
utility messages, is configured through UtilParamsSet) whose private
job is moving frames to other nodes.  Subclasses implement
:meth:`transmit` (in-process ones with one :meth:`make_handoff`).
There are two receive doors: :meth:`ingest_loaned` validates what a
wire wrote into a loaned block, :meth:`ingest_staged` adopts a block
handed over in-process (zero copies), and both post through the
latter's one ``frame-ingest`` fact, where the simulation plane charges
Table 1's ``pt_processing`` ("Handling an incoming message in the GM
PT accounts for most of the time ... most of the PT processing time
is spent in the frame allocation", paper §5).

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
from repro.i2o.frame import HEADER_SIZE, Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
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
    metric_kind = "pt"
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
        if self.executive is not None:  # ``msgi.wake()``, inline
            msgi = self.executive.msgi
            if msgi.parking:
                msgi.ring()
            if msgi.on_work is not None:
                msgi.on_work()

    def suspend(self) -> None:
        """Paper §4: it is "advisable ... to suspend other PTs during
        periods in which low latency communication is required"."""
        self.suspended = True

    def resume(self) -> None:
        self.suspended = False
        self.notify_staged()  # data may have been staged meanwhile

    def on_unplug(self) -> None:
        """Leave the PTA (later sends get the standard failure reply);
        subclasses also return staged blocks and leave shared media."""
        pta = self._require_live().pta
        if pta is not None:
            pta.forget(self)

    def crash_detach(self) -> None:
        """Die as a crashed node would (``Executive.hard_stop``): leave as
        :meth:`on_unplug` does, with no draining or farewells, and suspend."""
        self.on_unplug()
        self.suspended = True

    # -- the receive doors ------------------------------------------------------
    def ingest_loaned(
        self, src_node: int, block: "PoolBlock", view: memoryview
    ) -> Frame:
        """The wire door: validate the frame copied off the wire (the
        one rx copy) into ``view`` of ``block`` (from
        :meth:`Executive.block_loan`, Table 1's nested ``frame-alloc``),
        then post it as an in-process block.  A failure returns it."""
        self.rx_copies += 1
        try:
            _adopt(block, len(view))
        except BaseException:
            self._return_block(block)
            raise
        return self.ingest_staged((src_node, block, len(view)))

    def ingest_frame_bytes(self, src_node: int, frame_bytes) -> Frame:
        """Ingest a frame whose medium yields a byte string (the
        simulation planes' packet payloads): loan, copy in, post."""
        size = len(frame_bytes)
        block = self._require_live().block_loan(size)
        view = block.memory[:size]
        view[:] = frame_bytes
        return self.ingest_loaned(src_node, block, view)

    def ingest_staged(self, item: StagedItem) -> Frame:
        """The in-process door, once per hop: the sender's block, handed
        over wholesale (buffer-loaning, §4), becomes the inbound frame.
        Its header is trusted (DESIGN, "Trust boundaries"); a sanitized
        block re-checks it.  Any failure, "not installed" included,
        returns the block to its pool."""
        if len(item) == 2:  # serialised bytes: the copying path
            return self.ingest_frame_bytes(item[0], item[1])
        src_node, block, frame_len = item
        try:
            exe = self.executive
            if exe is None:
                raise TransportError(f"peer transport {self.name!r} is not installed")
            frame = block.adopt(frame_len)
            frame.put_initiator(exe.routes.create_proxy(
                src_node, frame._initiator, self.name))
            size = HEADER_SIZE + frame._payload_size
            self.frames_received += 1
            self.bytes_received += size
            fr = exe.flightrec
            if fr is not None:
                fr.record(EV_FRAME_INGEST, frame._transaction_context,
                          pack3(src_node, frame._target, frame._xfunction),
                          size)
            # Its wake is needed: task-mode QueueTransport ingests on its own thread.
            exe.msgi.post_inbound(frame)
            return frame
        except BaseException:
            self._return_block(block)
            raise

    def _return_block(self, block: "PoolBlock") -> None:
        # A failed ingest's block goes back to its pool with its frame
        # unloaned; an installed transport records it as ``frame_free`` does.
        block.frame.block = None
        exe = self.executive
        block.release() if exe is None else exe.block_return(block)

    # -- intra-process staging ------------------------------------------------
    def make_handoff(self, frame: Frame) -> StagedItem:
        """Count the frame sent; detach its block for a peer executive.

        Returns a staged item carrying the block itself when the frame
        is pool-backed (the sender's loan travels with the item — zero
        copies), or the serialised bytes otherwise.  Caller has
        committed to delivery: the frame no longer owns its block.
        """
        node = self.executive.node  # type: ignore[union-attr]
        size = HEADER_SIZE + frame._payload_size
        self.frames_sent += 1
        self.bytes_sent += size
        block = frame.block
        if block is not None:
            # The frame is the block's own: the receiver adopts it.
            frame.block = None  # ownership moves with the staged item
            return (node, block, size)
        self.tx_copies += 1
        return (node, frame.tobytes())

    @staticmethod
    def release_staged(item: StagedItem) -> None:
        """Drop a staged item undelivered (faults, an endpoint leaving)."""
        if len(item) == 3:
            item[1].release()

    # -- wire-side transmit bookkeeping (``make_handoff`` counts its own) ----
    def account_sent(self, nbytes: int) -> None:
        self.frames_sent += 1
        self.bytes_sent += nbytes

    def export_counters(self) -> dict[str, object]:
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "tx_copies": self.tx_copies,
            "rx_copies": self.rx_copies,
        }
