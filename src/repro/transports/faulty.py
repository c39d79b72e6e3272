"""Fault-injecting transports for resilience testing.

The paper's domain (§1: air traffic control, physics DAQ) makes
delivery failure a first-class concern, and its fault-tolerance story
(default handlers, watchdogs, failure replies) needs an adversarial
wire to be tested against.  :class:`FaultyLoopbackTransport` wraps the
loopback medium with deterministic, seeded fault injection:

* **drop** — the message vanishes;
* **duplicate** — delivered twice;
* **corrupt** — one byte of the frame body is flipped (the receiver's
  validation or the application's CRC must catch it);
* **delay** — the message is re-queued behind later traffic
  (reordering);
* **partition** — a whole node (or set of nodes) is cut off: nothing
  this endpoint sends reaches them and nothing they sent is ingested.
  ``partition()`` with no arguments isolates this endpoint entirely —
  the node-death injection the supervision layer is tested against.
  ``heal()`` reconnects.

Faults are driven by a named RNG substream, so a failing test replays
identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.config.schema import ParamSchema, ParamSpec
from repro.i2o.frame import HEADER_SIZE, Frame
from repro.sim.rng import RngStreams
from repro.transports.base import StagedItem
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport

#: Sentinel for "partitioned from every peer".
ALL_NODES = object()


@dataclass(frozen=True)
class FaultPlan:
    """Per-message fault probabilities (independent draws)."""

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "corrupt_rate",
                     "delay_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


#: The bootstrap ``faults`` section: a spec with one runs its loopback
#: wire as a ``FaultyLoopbackTransport`` per node, node N seeded with
#: ``seed + N``.
FAULTS_SCHEMA = ParamSchema([
    ParamSpec("drop_rate", float, default=0.0, minimum=0.0, maximum=1.0,
              description="chance a message vanishes"),
    ParamSpec("duplicate_rate", float, default=0.0, minimum=0.0,
              maximum=1.0, description="chance a message arrives twice"),
    ParamSpec("seed", int, default=0, minimum=0,
              description="fault-draw seed; node N draws from seed + N"),
])


class FaultyLoopbackTransport(LoopbackTransport):
    """Loopback with seeded fault injection on the transmit side."""

    def __init__(
        self,
        network: LoopbackNetwork,
        plan: FaultPlan,
        name: str = "faulty",
        *,
        seed: int = 0,
    ) -> None:
        super().__init__(network, name=name)
        self.plan = plan
        self._rng = RngStreams(seed).stream(f"faults/{name}")
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        self.delayed = 0
        self.partition_dropped = 0
        self._delayed_queue: deque[StagedItem] = deque()
        self._partitioned: set[int] | object = set()

    # -- partition fault ---------------------------------------------------
    def partition(self, *nodes: int) -> None:
        """Cut the link to ``nodes`` in both directions; with no
        arguments, isolate this endpoint from the whole cluster
        (models this node's death as seen by everyone else)."""
        if not nodes:
            self._partitioned = ALL_NODES
        elif self._partitioned is not ALL_NODES:
            self._partitioned.update(nodes)  # type: ignore[union-attr]

    def heal(self, *nodes: int) -> None:
        """Reconnect ``nodes`` (or everything, with no arguments)."""
        if not nodes or self._partitioned is ALL_NODES:
            self._partitioned = set()
        else:
            self._partitioned.difference_update(nodes)  # type: ignore[union-attr]

    def is_cut(self, node: int) -> bool:
        return self._partitioned is ALL_NODES or node in self._partitioned  # type: ignore[operator]

    # -- transmit-side faults ----------------------------------------------
    def transmit(self, frame: Frame, route) -> None:
        src_size = HEADER_SIZE + frame._payload_size
        network = self.network
        dest = network._endpoints.get(route.node) or network.endpoint(route.node)
        # A clean delivery hands the block over zero-copy like the
        # plain loopback; faults that mutate or multiply the message
        # are copy-on-mutate, so injection can never scribble on a
        # buffer the sender's pool already recycled.
        item = self.make_handoff(frame)
        if self.is_cut(route.node):
            self.partition_dropped += 1
            self.release_staged(item)
            return
        plan = self.plan
        draw = self._rng.random
        if draw() < plan.drop_rate:
            self.dropped += 1
            self.release_staged(item)
            return
        if draw() < plan.corrupt_rate and src_size > HEADER_SIZE:
            # Flip a payload byte: the frame still parses, so only an
            # end-to-end integrity check (application CRC) catches it.
            self.corrupted += 1
            mutable = bytearray(self._staged_bytes(item))
            index = HEADER_SIZE + int(
                self._rng.integers(0, src_size - HEADER_SIZE)
            )
            mutable[index] ^= 0xFF
            src_node = item[0]
            self.release_staged(item)
            item = (src_node, bytes(mutable))
        copies = 2 if draw() < plan.duplicate_rate else 1
        if copies == 2:
            self.duplicated += 1
        deliveries = [item]
        if copies == 2:
            deliveries.append((item[0], self._staged_bytes(item)))
        # A plain loopback peer has no delay queue, so it draws no delay.
        held = getattr(dest, "_delayed_queue", None)
        for delivery in deliveries:
            if held is not None and draw() < plan.delay_rate:
                self.delayed += 1
                held.append(delivery)  # delivered on the peer's next round
            else:
                dest._staged.append(delivery)
        dest.notify_staged()

    def _staged_bytes(self, item: StagedItem) -> bytes:
        """Serialise a staged item's frame (the copy-on-mutate copy)."""
        if len(item) == 3:
            self.tx_copies += 1
            return bytes(item[1].memory[: item[2]])
        return item[1]

    # -- receive side ------------------------------------------------------
    def poll(self) -> bool:
        """Ingest staged traffic, then promote delayed traffic so it is
        delivered on the *next* round — unconditionally, so a delayed
        message cannot starve behind a continuous stream of later
        arrivals, and an idle wire still drains within one extra poll.
        """
        if self.suspended:
            return False
        staged = self._staged
        # A dropped item counts too: the queue did move.
        got = bool(staged or self._delayed_queue)
        ingest, take = self.ingest_staged, staged.popleft
        for _ in range(len(staged)):
            item = take()
            if self.is_cut(item[0]):
                self.partition_dropped += 1
                self.release_staged(item)
            else:
                ingest(item)
        self._promote_delayed()
        return got

    def _promote_delayed(self) -> None:
        delayed = self._delayed_queue  # popleft: senders append meanwhile
        self._staged.extend(delayed.popleft() for _ in range(len(delayed)))

    def flush(self) -> bool:
        """Idle-drain: deliver everything — including delayed traffic —
        right now instead of one poll round later.  Drivers that stop
        pumping on idle call this to guarantee no message is stranded
        in the delay queue."""
        if not (self._staged or self._delayed_queue):
            return False
        self._promote_delayed()
        return self.poll()

    def on_unplug(self) -> None:
        while self._delayed_queue:
            self.release_staged(self._delayed_queue.popleft())
        super().on_unplug()

    @property
    def has_pending(self) -> bool:
        return bool(self._staged or self._delayed_queue) and not self.suspended
