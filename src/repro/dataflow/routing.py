"""Runtime routing state: per-device route tables and edge credits.

The graph (:mod:`repro.dataflow.graph`) is analytic; this module is
what the hot path actually touches.  A device's typed ``emit`` resolves
a :class:`TypeRoutes` — a plain ``key -> TiD`` mapping installed once
by :func:`~repro.dataflow.wiring.wire_dataflow` — and posts ordinary
frames.  No graph walk, no registry
lookup, no new send path: the frames leave through the same zero-copy
``frameSend`` as before.

Backpressure rides on top as per-edge *credit counters* derived from
the consumer's priority-FIFO capacity:

* ``emit`` acquires one credit per frame from the edge it targets; an
  edge out of credits means the consumer's queue share is full, and
  the emitter **parks** the payload in its node's bounded
  :class:`DataflowOutbox` (flushed from the executive's poll loop) or
  **sheds** it, per the message type's ``on_saturation`` policy.
* the credit comes back when the *consumer's* executive pops the frame
  for dispatch — the queue slot is free again: the ledger is attached
  to every executive as a dispatch observer
  (:mod:`repro.core.observer`), and wakes an emitter parked on it.
  A consumer that calls :meth:`~CreditLedger.hold` for a type returns
  those credits itself (the event manager: when the event is finished).

Credits are conservative, not reliable-delivery: the
:class:`CreditLedger` is the single-process bookkeeping all bootstrap
clusters share (every transport in this reproduction is in-process).
A frame that dead-letters between acquire and dispatch strands its
credit until :meth:`CreditLedger.forget_edge` reclaims the edge —
supervision calls that when it drops a dead consumer.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.core.observer import DispatchObserver, DispatchRecord
from repro.dataflow.registry import MessageType
from repro.i2o.tid import Tid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.device import Listener
    from repro.core.executive import Executive

#: Default per-consumer queue capacity (frames) when neither the
#: device class (``queue_capacity``) nor the spec (``edge_credits``)
#: says otherwise.
DEFAULT_EDGE_CREDITS = 64

#: Default bound on parked emissions per node.
DEFAULT_PARK_LIMIT = 256


class Edge:
    """One emits→consumes edge with its credit window."""

    __slots__ = (
        "mtype", "key", "emitter", "emitter_node",
        "consumer", "consumer_node", "consumer_tid",
        "capacity", "credits", "ledger_key", "parked",
    )

    def __init__(
        self,
        mtype: MessageType,
        key: Any,
        emitter: str,
        emitter_node: int,
        consumer: str,
        consumer_node: int,
        consumer_tid: Tid,
        capacity: int,
    ) -> None:
        self.mtype = mtype
        self.key = key
        self.emitter = emitter
        self.emitter_node = emitter_node
        self.consumer = consumer
        self.consumer_node = consumer_node
        self.consumer_tid = consumer_tid
        self.capacity = capacity
        self.credits = capacity
        #: how the *consumer's* dispatch loop identifies this traffic
        self.ledger_key = (
            consumer_node, consumer_tid, mtype.function, mtype.xfunction,
        )
        #: emissions the emitter's outbox holds for want of a credit
        #: here: while nonzero, a returned credit wakes the emitter
        self.parked = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Edge {self.emitter}->{self.consumer} {self.mtype.name} "
            f"{self.credits}/{self.capacity}>"
        )


class CreditLedger(DispatchObserver):
    """Cluster-wide credit bookkeeping (one per bootstrapped cluster).

    ``try_acquire`` runs on the emitter side at ``emit`` time;
    ``on_dispatched`` runs on the consumer side when its scheduler pops
    a frame — the FIFO slot is free, so the oldest charged edge for
    that ``(node, tid, function, xfunction)`` gets its credit back.
    Attribution through the per-consumer FIFO keeps conservation exact
    even when several emitters share one consumer.  The one ledger is
    attached to every executive of the cluster (``exe.attach(ledger)``
    also sets ``exe.dataflow`` for the emit-side readers).
    """

    label = "dataflow credit ledger"

    def __init__(self) -> None:
        #: (node, tid, function, xfunction) -> edges awaiting release
        self._charged: dict[tuple[int, Tid, int, int], deque[Edge]] = {}
        self._edges_by_node: dict[int, list[Edge]] = {}
        #: ledger keys whose consumer returns its credits itself
        self._held: set[tuple[int, Tid, int, int]] = set()
        #: ("shed" | "park_overflow" | "resumed", node) -> emissions
        self.counts: Counter[tuple[str, int]] = Counter()
        #: node -> the MessagingInstance a parked emitter is woken by
        self._msgi: dict[int, Any] = {}

    # -- wiring ------------------------------------------------------------
    def register_edge(
        self,
        mtype: MessageType,
        key: Any,
        emitter: str,
        emitter_node: int,
        consumer: str,
        consumer_node: int,
        consumer_tid: Tid,
        capacity: int,
    ) -> Edge:
        edge = Edge(
            mtype, key, emitter, emitter_node,
            consumer, consumer_node, consumer_tid, max(1, capacity),
        )
        self._edges_by_node.setdefault(emitter_node, []).append(edge)
        return edge

    def forget_edge(self, edge: Edge) -> None:
        """Drop an edge (dead consumer): purge its pending charges so
        the accounting does not strand credits forever."""
        queue = self._charged.get(edge.ledger_key)
        if queue:
            remaining = deque(e for e in queue if e is not edge)
            if remaining:
                self._charged[edge.ledger_key] = remaining
            else:
                del self._charged[edge.ledger_key]
        edges = self._edges_by_node.get(edge.emitter_node)
        if edges is not None and edge in edges:
            edges.remove(edge)
        if edge.parked:  # they can leave now: shed, or by a new edge
            self._msgi[edge.emitter_node].wake()

    # -- the two hot-path operations ---------------------------------------
    def try_acquire(self, edge: Edge) -> bool:
        """Take one credit; False means the edge is saturated."""
        if edge.credits <= 0:
            return False
        edge.credits -= 1
        self._charged.setdefault(edge.ledger_key, deque()).append(edge)
        return True

    def on_dispatched(
        self, node: int, tid: Tid, function: int, xfunction: int,
        at_dispatch: bool = False,
    ) -> None:
        """The one release routine: the oldest charged edge into the
        consumer gets its credit back, unless held at dispatch (:meth:`hold`)."""
        key = (node, tid, function, xfunction)
        queue = self._charged.get(key)
        if queue and not (at_dispatch and key in self._held):
            edge = queue.popleft()
            if edge.credits < edge.capacity:
                edge.credits += 1
            if edge.parked:  # published the credit: wake the emitter
                self._msgi[edge.emitter_node].wake()

    def hold(self, node: int, tid: Tid, mtype: MessageType) -> Callable[[], None]:
        """``(node, tid)`` returns its ``mtype`` credits itself: call the result."""
        key = (node, tid, mtype.function, mtype.xfunction)
        self._held.add(key)
        return partial(self.on_dispatched, *key)

    def on_attach(self, exe: "Executive") -> None:
        exe.dataflow = self
        self._msgi[exe.node] = exe.msgi

    def on_detach(self, exe: "Executive") -> None:
        exe.dataflow = None

    def dispatch_begin(self, rec: DispatchRecord) -> None:
        self.on_dispatched(
            rec.node, rec.target, rec.function, rec.xfunction, True)

    # -- accounting --------------------------------------------------------
    def shed(self, node: int) -> int:
        return self.counts["shed", node]

    def park_overflow(self, node: int) -> int:
        return self.counts["park_overflow", node]

    def resumed(self, node: int) -> int:
        return self.counts["resumed", node]

    def credits_available(self, node: int) -> int:
        """Remaining credits over every edge emitted from ``node``."""
        return sum(e.credits for e in self._edges_by_node.get(node, ()))


class TypeRoutes:
    """Installed routes for one message type on one emitting device.

    ``targets`` maps consumer ``dataflow_key`` -> TiD (local or proxy).
    The mapping may be *shared* between types, so dropping a dead
    consumer updates all of them.  ``edges`` carries the per-key credit
    state when the routes were wired with backpressure; ``None`` means
    uncapped.
    """

    __slots__ = ("mtype", "targets", "edges")

    def __init__(
        self,
        mtype: MessageType,
        targets: dict[Any, Tid],
        edges: dict[Any, Edge] | None = None,
    ) -> None:
        self.mtype = mtype
        self.targets = targets
        self.edges = edges

    def drop(self, key: Any, ledger: CreditLedger | None = None) -> bool:
        """Remove one target (supervision: the consumer died).

        Targets and edges are dropped independently: when two types
        share one targets dict, the first ``drop`` empties the mapping
        but each type still owns its edge state.
        """
        found = key in self.targets
        if found:
            del self.targets[key]
        if self.edges is not None:
            edge = self.edges.pop(key, None)
            if edge is not None:
                found = True
                if ledger is not None:
                    ledger.forget_edge(edge)
        return found


class DataflowOutbox:
    """Bounded per-node holding area for parked emissions.

    Registered in the executive's poll loop: each step retries parked
    entries against their edges' credits and re-posts the ones that
    fit.  An entry whose route vanished (the consumer was dropped) is
    shed.  ``park`` refuses beyond ``limit``, which the emitter counts
    as a park overflow: never unbounded buffering (the queue-capacity
    discipline, applied to the emitter).
    """

    def __init__(
        self, executive: "Executive", ledger: CreditLedger,
        limit: int = DEFAULT_PARK_LIMIT,
    ) -> None:
        self._exe = executive
        self._ledger = ledger
        self.limit = limit
        #: (device, mtype, key, parked-on edge, payload,
        #:  transaction_ctx, initiator_ctx)
        self._entries: deque[
            tuple["Listener", MessageType, Any, Edge, bytes, int, int]
        ] = deque()
        self.parked_total = 0

    @property
    def depth(self) -> int:
        return len(self._entries)

    def export_counters(self) -> dict[str, object]:
        """The node's ``dataflow_*`` series: its parked entries and its
        share of the ledger's credits and outcomes."""
        ledger, node = self._ledger, self._exe.node
        return {
            "dataflow_credits_available": ledger.credits_available(node),
            "dataflow_parked": self.depth,
            "dataflow_parked_total": self.parked_total,
            "dataflow_shed_total": ledger.shed(node),
            "dataflow_park_overflow": ledger.park_overflow(node),
            "dataflow_resumed_total": ledger.resumed(node),
        }

    @staticmethod
    def _route(entry: tuple) -> tuple[TypeRoutes | None, Edge | None]:
        """Routes (``None``: consumer gone) and edge (``None``: uncapped)."""
        routes = entry[0].routes_for(entry[1])
        if routes is None or entry[2] not in routes.targets:
            return None, None
        return routes, (routes.edges.get(entry[2]) if routes.edges else None)

    @property
    def has_pending(self) -> bool:
        # Saturated entries are not pending: the loop sleeps until the
        # ledger returns a credit to their edge (``Edge.parked``).
        return any(edge is None or edge.credits > 0
                   for _, edge in map(self._route, self._entries))

    def park(
        self, device: "Listener", mtype: MessageType, key: Any, edge: Edge,
        payload: bytes, transaction_context: int, initiator_context: int,
    ) -> bool:
        if len(self._entries) >= self.limit:
            return False
        self._entries.append(
            (device, mtype, key, edge, payload,
             transaction_context, initiator_context)
        )
        edge.parked += 1
        self.parked_total += 1
        self._exe.msgi.wake()  # the emit may have come from another thread
        return True

    def poll(self) -> bool:
        """Retry every parked entry once; True if any frame moved."""
        progressed = False
        for _ in range(len(self._entries)):
            entry = self._entries.popleft()
            device, mtype, key, parked_on, payload, tctx, ictx = entry
            routes, edge = self._route(entry)
            if edge is not None and not self._ledger.try_acquire(edge):
                self._entries.append(entry)
                continue
            parked_on.parked -= 1
            progressed = True
            if routes is None:
                # The consumer was dropped while the payload waited.
                self._ledger.counts["shed", self._exe.node] += 1
                continue
            device.send(
                routes.targets[key], payload,
                xfunction=mtype.xfunction, function=mtype.function,
                priority=mtype.priority, organization=mtype.organization,
                transaction_context=tctx, initiator_context=ictx,
            )
            self._ledger.counts["resumed", self._exe.node] += 1
            recorder = self._exe.flightrec
            if recorder is not None:
                from repro.flightrec.records import EV_DATAFLOW_RESUME, pack3

                recorder.record(
                    EV_DATAFLOW_RESUME,
                    pack3(edge.consumer_node if edge is not None
                          else self._exe.node,
                          routes.targets.get(key, 0), mtype.xfunction),
                    len(self._entries),
                )
        return progressed

    def crash_detach(self) -> None:
        """Hard-stop hook (the executive detaches every pollable):
        abandon parked payloads without touching the credits."""
        while self._entries:
            self._entries.popleft()[3].parked -= 1
