"""The XDAQ executive: the loop of control, memory and lifecycle.

One executive runs per processing node.  It is deliberately *lean*
(paper §4: "After all, the executive is very lean as it acts only as a
delegate"): devices keep their own dispatch tables; the executive owns
only the loop of control, the frame memory and the TiD space.  Proxies
and failover live in its :class:`~repro.core.routes.RouteTable`
(``exe.routes``), its message set in
:class:`~repro.core.executive_device.ExecutiveDevice` (TiD 0).  It
carries no instrument: observers (:meth:`Executive.attach`)
— the sim plane's cost model included — work from the facts it reports.

Message flow (paper figure 4):

1. a device calls :meth:`frame_send` → the frame is posted to the
   **outbound** queue of the messaging instance;
2. the executive routes it: a local target goes straight to the
   priority scheduler, a proxy target goes to the Peer Transport Agent
   (3) which hands it to the Peer Transport serving the route (4);
3. on the receiving node the PT (5) gives the frame to the PTA (6),
   which posts it to the **inbound** queue (7);
4. the dispatch loop demultiplexes the frame through the target
   device's dispatch table and upcalls the functor (8).
"""

from __future__ import annotations

import logging
import struct
import threading
import warnings
from typing import TYPE_CHECKING, Any

from repro.core.device import RETAIN, Listener
from repro.core.executive_device import ExecutiveDevice
from repro.core.interrupts import InterruptController
from repro.core.observer import (
    OUTCOME_ABORTED,
    OUTCOME_HANDLER_ERROR,
    OUTCOME_OK,
    OUTCOME_VANISHED,
    OUTCOME_WATCHDOG,
    DispatchObserver,
    DispatchRecord,
)
from repro.core.queues import MessagingInstance
from repro.core.registry import ModuleRegistry
from repro.core.routes import RouteTable
from repro.core.scheduler import PriorityScheduler
from repro.core.states import DeviceState, PeerTable
from repro.core.timer import TimerService
from repro.core.watchdog import HandlerWatchdog, WatchdogTimeout
from repro.flightrec.records import EV_HARD_STOP, EV_POOL_EXHAUSTED, EV_WATCHDOG_TRIP
from repro.hw.clock import Clock, WallClock
from repro.i2o.errors import AddressingError, FrameFormatError, I2OError
from repro.i2o.frame import (
    DEFAULT_PRIORITY,
    FLAG_FAIL,
    FLAG_REPLY,
    HEADER_SIZE,
    Frame,
    check_header,
)
from repro.i2o.function_codes import PRIVATE, function_name
from repro.i2o.tid import (
    EXECUTIVE_TID,
    TID_BROADCAST,
    Tid,
    TidAllocator,
    check_node,
)
from repro.mem.pool import BufferPool, PoolExhausted

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flightrec.recorder import FlightRecorder
    from repro.mem.block import PoolBlock
    from repro.transports.agent import PeerTransportAgent

logger = logging.getLogger(__name__)


class Executive:
    """One processing node's executive program."""

    def __init__(
        self,
        node: int = 0,
        *,
        pool: BufferPool | None = None,
        clock: Clock | None = None,
        watchdog: HandlerWatchdog | None = None,
        max_dispatch_per_step: int = 16,
    ) -> None:
        self.node = check_node(node)
        self.pool = pool if pool is not None else BufferPool()
        self.clock: Clock = clock if clock is not None else WallClock()
        self.watchdog = watchdog
        self.max_dispatch_per_step = max_dispatch_per_step
        #: dispatch observers in attach order; copy-on-write, so the
        #: dispatch loop reads the tuple once per frame (:meth:`attach`)
        self.observers: tuple[DispatchObserver, ...] = ()
        #: the record lent to the observers of each outermost dispatch
        self._record = DispatchRecord(self.node)
        #: plain references for the non-dispatch hook sites (trace stamp,
        #: enqueue mark / alloc / release / transmit records, emit-side
        #: credits); each is set by its owner when it attaches.  On a
        #: sim-plane node the cost ledger holds ``flightrec`` and passes
        #: the facts on to a recorder behind it.
        self.flightrec: "FlightRecorder | None" = None
        self.dataflow: Any = None  # the cluster's CreditLedger
        self.dataflow_outbox: Any = None  # this node's DataflowOutbox
        self.profiler: Any = None  # the SamplingProfiler watching this node

        self.tids = TidAllocator()
        self.scheduler = PriorityScheduler()
        self.msgi = MessagingInstance()
        self.timers = TimerService(self)
        self.interrupts = InterruptController(self)
        self.registry = ModuleRegistry()
        self.state = DeviceState.INITIALISED

        self._devices: dict[Tid, Listener] = {}
        #: name → TiD index behind ``find_device`` (bootstrap and
        #: telemetry sweeps look devices up by name per device, so the
        #: O(n) scan was quadratic across a sweep)
        self._names: dict[str, Tid] = {}
        self.routes = RouteTable(node, self.tids)
        #: the table's own TiD -> Route dict, read by ``_route`` and
        #: ``_dead_letter`` (written only by the table)
        self._routes = self.routes.by_proxy
        # The two route calls the trajectory benchmark makes on the
        # executive, bound straight to the table.
        self.create_proxy = self.routes.create_proxy
        self.route_for = self.routes.route_for
        self.pta: "PeerTransportAgent | None" = None
        #: polling-mode PTs (set by the PTA) and the dataflow outbox
        self._pollable: list[Any] = []

        # Peer liveness table (fed by a HeartbeatService, if installed).
        self.peers = PeerTable()

        self.dispatched = 0
        self.dropped = 0
        self.handler_errors = 0
        #: the frame whose handler is running (see ``frame_free``)
        self._dispatching: Frame | None = None
        self._halt_requested = False
        self._thread: threading.Thread | None = None
        self._thread_stop = threading.Event()

        # Install the executive's own device personality at TiD 0.
        self.tids.reserve(EXECUTIVE_TID)
        self._self_device = ExecutiveDevice(self)
        self._self_device.plugin(self, EXECUTIVE_TID)
        self._devices[EXECUTIVE_TID] = self._self_device
        self._names[self._self_device.name] = EXECUTIVE_TID

    def attach(self, observer: DispatchObserver) -> DispatchObserver:
        """Subscribe ``observer`` to every dispatch; returns it.

        Delivery order is attach order.  One observer per class: a
        second recorder or timer on one node is refused.  Safe
        from the main thread while the executive is ``start()``ed: the
        dispatch loop reads the tuple once per frame, so a begin is
        always paired with its end.
        """
        if any(type(other) is type(observer) for other in self.observers):
            raise I2OError(
                f"node {self.node} already has a {observer.label} attached"
            )
        observer.on_attach(self)
        self.observers += (observer,)
        return observer

    def detach(self, observer: DispatchObserver) -> None:
        """Unsubscribe ``observer`` (no-op when it is not attached)."""
        if observer in self.observers:
            self.observers = tuple(
                o for o in self.observers if o is not observer
            )
            observer.on_detach(self)

    # ------------------------------------------------------------------
    # device management
    # ------------------------------------------------------------------
    def install(self, device: Listener, tid: Tid | None = None) -> Tid:
        """Register a device module; returns its TiD (carried timers re-armed)."""
        if device.executive is not None:
            raise I2OError(f"device {device.name!r} is already installed")
        if tid is None:
            tid = self.tids.allocate()
        else:
            self.tids.reserve(tid)
        self._devices[tid] = device
        # First installation wins a contested name, matching the old
        # scan-in-insertion-order lookup.
        self._names.setdefault(device.name, tid)
        self.timers.adopt(tid, device.carried_timers)
        device.plugin(self, tid)
        logger.debug("node %s: installed %s at TiD %d", self.node, device.name, tid)
        return tid

    def uninstall(self, tid: Tid) -> Listener:
        """Remove a device (ExecDdmDestroy); drops its queued frames.
        Its timers leave with it (a queued expiry too), for ``install``."""
        device = self._devices.pop(tid, None)
        if device is None:
            raise AddressingError(f"no device at TiD {tid}")
        if self._names.get(device.name) == tid:
            del self._names[device.name]
            # Promote the next device carrying the same name, if any —
            # again in insertion order, like the old scan.
            for other_tid, other in self._devices.items():
                if other.name == device.name:
                    self._names[device.name] = other_tid
                    break
        dropped = self.scheduler.drop_device(tid)
        device.unplug()
        device.carried_timers = self.timers.detach_owned(tid, dropped)
        for frame in dropped:
            self.frame_free(frame)
        self.tids.release(tid)
        self.registry.forget(tid)
        return device

    def device(self, tid: Tid) -> Listener:
        dev = self._devices.get(tid)
        if dev is None:
            raise AddressingError(f"no device at TiD {tid} on node {self.node}")
        return dev

    def devices(self) -> dict[Tid, Listener]:
        return dict(self._devices)

    def find_device(self, name: str) -> Listener:
        tid = self._names.get(name)
        if tid is None:
            raise AddressingError(
                f"no device named {name!r} on node {self.node}"
            )
        return self._devices[tid]

    # ------------------------------------------------------------------
    # frame API (the narrow component interface of paper §1)
    # ------------------------------------------------------------------
    def frame_alloc(
        self,
        payload_size: int,
        *,
        target: Tid,
        initiator: Tid = EXECUTIVE_TID,
        function: int = PRIVATE,
        xfunction: int = 0,
        priority: int = DEFAULT_PRIORITY,
        flags: int = 0,
        organization: int = 0,
        initiator_context: int = 0,
        transaction_context: int = 0,
    ) -> Frame:
        """Loan a pool block and shape it into an addressed frame.

        The payload size is declared in the header; content is written
        by the caller directly into ``frame.payload`` (zero-copy
        buffer loaning).  The API door for device code, by keyword;
        :meth:`frame_loan` is the same loan taking the fields in header
        order, for the per-message paths.
        """
        return self.frame_loan(
            flags, priority, function, target, initiator, payload_size,
            organization, xfunction, initiator_context, transaction_context,
        )

    def frame_loan(
        self, flags: int, priority: int, function: int, target: Tid,
        initiator: Tid, payload_size: int, organization: int,
        xfunction: int, initiator_context: int, transaction_context: int,
    ) -> Frame:
        """:meth:`frame_alloc` positionally, in the order of the header
        (``frame.header_fields()[1:]``): what ``Listener._post`` calls
        once per message, where ten keywords are a measurable share of
        the cost.  The arguments are checked once, before the loan, so
        a refusal holds no block.  The frame is the block's own,
        re-headed in one pack: no Python object is built.
        """
        check_header(target, initiator, function, payload_size, priority, flags)
        size = HEADER_SIZE + payload_size
        # block_loan's body, inlined: a call is a measurable share of
        # a ping-pong's per-message cost.
        try:
            block = self.pool.alloc(size)
        except PoolExhausted:
            if self.flightrec is not None:
                self.flightrec.record(EV_POOL_EXHAUSTED, size)
            raise
        frame = block.frame
        try:
            frame.put_header(
                flags, priority, function, target, initiator, payload_size,
                organization, xfunction, initiator_context, transaction_context,
            )
        except (TypeError, struct.error) as exc:  # a field that is no int
            self.pool.free(block)
            raise FrameFormatError(f"header fields must be ints: {exc}") from exc
        frame.block, frame.trace_mark = block, None
        if self.flightrec is not None:
            self.flightrec.note_alloc(size, self.pool.in_flight)
        return frame

    def block_loan(self, size: int) -> "PoolBlock":
        """Loan a pool block of ``size`` bytes for a peer transport's
        receive path to fill with wire bytes, recording the loan — or
        the exhaustion, before it raises — as :meth:`frame_alloc` does,
        so frame-memory facts are written only here."""
        try:
            block = self.pool.alloc(size)
        except PoolExhausted:
            if self.flightrec is not None:
                self.flightrec.record(EV_POOL_EXHAUSTED, size)
            raise
        if self.flightrec is not None:
            self.flightrec.note_alloc(size, self.pool.in_flight)
        return block

    def block_return(self, block: "PoolBlock") -> None:
        """Return a :meth:`block_loan` block that never became a frame
        (the receive failed), recording the release as
        :meth:`frame_free` does, under context 0."""
        if self.flightrec is not None:
            self.flightrec.note_release(0)
        self.pool.free(block)

    def frame_send(self, frame: Frame) -> None:
        """Post a frame for routing (frameSend).

        A pool frame's header was checked at ``frame_alloc`` (the API
        door) and only checked setters have written it since, so only
        foreign buffers (hand-built bytearrays) are validated here.
        Wire input is validated at ingest; a pool frame handed to a
        peer in-process is trusted (DESIGN, "Trust boundaries").
        """
        if frame.block is None:
            frame.validate()
        if self.flightrec is not None:
            self.flightrec.stamp(frame)
        self.msgi.post_outbound(frame)

    def frame_free(self, frame: Frame) -> None:
        """Release a frame's block back to the pool (frameFree)."""
        # The one release routine: handlers, transports, drops, dead
        # letters and ``hard_stop`` all come through here.
        block = frame.block
        if block is not None:
            if self.flightrec is not None:
                # Context read *before* the free: afterwards the
                # block may recycle under the sanitizer's poison.
                self.flightrec.note_release(frame.transaction_context)
            if frame is self._dispatching:
                # A handler freed the frame it runs on, and the loop
                # still holds it: the block gets a fresh frame, so no
                # later loan re-heads this one under the loop's feet.
                block.frame = Frame._undecoded(block.memory, None)
            # Detach before the release: from then on the block's owner
            # (on another thread, for a block a peer handed over) may
            # loan it again at once, re-heading this very frame.
            frame.block = None
            block.release()

    def post_inbound(self, frame: Frame) -> None:
        """Entry point for peer transports and the timer service."""
        self.msgi.post_inbound(frame)

    # ------------------------------------------------------------------
    # the loop of control
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """One scheduling quantum; returns True if any work was done."""
        worked = False
        # The timer table and the scheduler depth are read as plain
        # attributes, as the deques are: a call each costs more.
        if self.timers._live and self.timers.poll(self.clock.now_ns()):
            worked = True
        if self.msgi.watched and self.msgi.service():
            worked = True
        for pt in self._pollable:
            if pt.poll():
                worked = True
        # One drain loop: route every outbound frame, take in every
        # inbound one, then dispatch one frame while budget remains and
        # drain again — a dispatch may have generated sends, and
        # request/reply chains complete within one call in
        # single-threaded use.  The deques are this loop's to drain.
        outbound, inbound = self.msgi._outbound, self.msgi._inbound
        devices, scheduler = self._devices, self.scheduler
        budget = self.max_dispatch_per_step
        while True:
            if outbound or inbound:
                worked = True
                while outbound:
                    self._route(outbound.popleft())
                # One enqueue mark per pass, not per frame: the frames
                # one pass takes in enter the scheduler together.
                mark = (self.clock.now_ns() if inbound
                        and self.flightrec is not None else None)
                while inbound:
                    frame = inbound.popleft()
                    if frame._target in devices:
                        frame.trace_mark = mark
                        scheduler.push(frame)
                    else:
                        self._dead_letter(
                            frame, f"inbound for unknown TiD {frame._target}")
            if not budget or not scheduler._depth:
                return worked
            budget -= 1
            self._dispatch_one()
            worked = True

    def run_until_idle(self, max_steps: int = 1_000_000) -> int:
        """Step until no work remains; returns steps executed.

        Only meaningful in single-threaded use (tests, simulation);
        raises if the budget is exhausted, which almost always means a
        message loop.
        """
        for count in range(max_steps):
            if not self.step():
                return count
        raise I2OError(f"run_until_idle exceeded {max_steps} steps")

    @property
    def idle(self) -> bool:
        return self.msgi.idle and self.scheduler.empty and not any(
            pt.has_pending for pt in self._pollable)

    def request_halt(self) -> None:
        self._halt_requested = True
        self._thread_stop.set()
        if self._thread is not None:
            self.msgi.ring()

    # -- native thread mode -------------------------------------------------
    def start(self) -> None:
        """Run the loop of control in a dedicated thread (native plane).

        An idle loop parks in the messaging instance's epoll, untimed
        unless a timer is armed, until a producer of work
        (``msgi.wake``) or a stop rings or a watched fd is ready.
        """
        if self._thread is not None:
            raise I2OError("executive already started")
        self._thread_stop.clear()
        self._halt_requested = False
        msgi, scheduler = self.msgi, self.scheduler

        def loop() -> None:
            while not self._thread_stop.is_set():
                # A step that left the scheduler empty needs no idle
                # step after it: the checks below see any work left.
                if not self.step() or not scheduler._depth:
                    # Announce first: work published after this line
                    # rings; a deadline, staged item, credit or stop
                    # published before it is seen below (a ``step()``
                    # that serviced fds may have silenced the ring).
                    msgi.parking = True
                    if self._thread_stop.is_set() or (self._pollable and any(
                            pt.has_pending for pt in self._pollable)):
                        msgi.parking = False
                    else:
                        deadline = self.timers.next_deadline_ns()
                        msgi.wait_for_work(None if deadline is None else max(
                            0.0, (deadline - self.clock.now_ns()) / 1e9))
                if self._halt_requested:
                    break

        self._thread = threading.Thread(
            target=loop, name=f"executive-{self.node}", daemon=True
        )
        self._thread.start()

    def stepped_elsewhere(self) -> bool:
        """True when a live loop thread other than the caller owns
        :meth:`step` — a synchronous waiter must then park, not step."""
        thread = self._thread
        return (
            thread is not None
            and thread.is_alive()
            and thread is not threading.current_thread()
        )

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread is None:
            return
        self._thread_stop.set()
        self.msgi.ring()
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise I2OError(f"executive thread on node {self.node} did not stop")
        self._thread = None
        self.msgi.close()
        self._report_pool_leaks()

    def hard_stop(self) -> None:
        """Kill this executive as a crashed process (``kill -9``).

        The in-process analogue of abrupt node death, for durability
        and rejoin tests: every frame this executive still holds — in
        the messaging queues, the scheduler, or staged inside its
        transports — is released, exactly as the OS reclaims a dead
        process's memory (staged blocks may belong to *other* nodes'
        pools; they must not leak).  Timers are disarmed, transports
        detach from shared media so peers fail fast and a replacement
        can rejoin under the same node id.  Nothing is flushed and no
        device hook runs: anything not already journaled or
        snapshotted is gone — that is the point.  Recovery happens in
        a *new* executive built from the durable state, never by
        reusing this object.
        """
        if self._thread is not None:
            self._thread_stop.set()
            self.msgi.ring()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._halt_requested = True
        if self.flightrec is not None:
            self.flightrec.record(EV_HARD_STOP)
        self.timers.cancel_all()
        transports = self.pta.transports() if self.pta is not None else []
        # Each once, pollables first: a polling PT is in both lists.
        for pt in {id(pt): pt for pt in self._pollable + transports}.values():
            pt.crash_detach()
        while (frame := self.msgi.take_outbound()) is not None:
            self.frame_free(frame)
        while (frame := self.msgi.take_inbound()) is not None:
            self.frame_free(frame)
        while (frame := self.scheduler.pop()) is not None:
            self.frame_free(frame)
        self.msgi.close()
        self.state = DeviceState.FAILED
        if self.flightrec is not None:
            # Spill last so the drain's frame-release records make it
            # into the black box before the ring goes to disk.
            self.flightrec.spill("hard_stop")

    def _report_pool_leaks(self) -> None:
        """Under ``REPRO_SANITIZE=1``, surface any blocks still loaned
        at shutdown with the tracebacks of the allocations that leaked
        them.  A warning, not an exception: ``stop()`` runs in teardown
        paths where raising would mask the original failure — strict
        callers use :func:`repro.analysis.sanitize.assert_clean`.
        """
        from repro.analysis.sanitize import leak_report

        leaks = leak_report(self.pool)
        if leaks:
            warnings.warn(
                f"executive {self.node} shut down with "
                f"{len(leaks)} leaked pool block(s):\n" + "\n".join(leaks),
                ResourceWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _route(self, frame: Frame) -> None:
        target = frame._target  # the decoded slot, read directly
        if target == TID_BROADCAST:
            self._broadcast(frame)
        elif target in self._devices:
            self._enqueue(frame)
        elif target in self._routes:
            route = self._routes[target]
            if route.parked:
                self._dead_letter(
                    frame,
                    f"route parked: node {route.node} is dead",
                )
            elif self.pta is None:
                self._dead_letter(frame, "no peer transport agent installed")
            else:
                try:
                    self.pta.forward(frame, route)
                except I2OError as exc:
                    self._dead_letter(frame, f"transport failure: {exc}")
        else:
            self._dead_letter(frame, f"unroutable TiD {target}")

    def _broadcast(self, frame: Frame) -> None:
        """Deliver a copy of the frame to every local device except the
        initiator, then free it: one loan and one copy per listener, as
        fan-out ``emit`` does.  A pool that runs dry part way drops the
        deliveries left (counted in ``dropped``, logged); the exhaustion
        does not escape ``step``."""
        flags, priority, function, _, initiator, *rest = frame.header_fields()[1:]
        payload = frame.payload
        listeners = [tid for tid in self._devices if tid != initiator]
        for n, tid in enumerate(listeners):
            try:
                delivery = self.frame_loan(
                    flags, priority, function, tid, initiator, *rest)
            except PoolExhausted:
                self.dropped += len(listeners) - n
                logger.warning(
                    "node %s: pool exhausted, broadcast %s lost to %d of %d listeners",
                    self.node, function_name(function), len(listeners) - n,
                    len(listeners),
                )
                break
            delivery.payload[:] = payload
            self._enqueue(delivery)
        self.frame_free(frame)

    def _dead_letter(self, frame: Frame, reason: str) -> None:
        self.dropped += 1
        logger.warning(
            "node %s: dropping %s: %s", self.node, function_name(frame.function), reason
        )
        initiator = frame.initiator
        # Tell the initiator its request went nowhere — whether it is a
        # local device or a proxy for a remote one (an inbound frame's
        # initiator was rewritten to a local proxy TiD at ingest, so the
        # failure reply routes back across the wire).
        if not frame.is_reply and (
            initiator in self._devices or initiator in self._routes
        ):
            # Snapshot the headers the reply needs, then release the
            # original *before* allocating: if the pool is exhausted the
            # dropped frame must not leak on top of the lost reply.
            function = frame.function
            xfunction = frame.xfunction
            priority = frame.priority
            initiator_context = frame.initiator_context
            transaction_context = frame.transaction_context
            self.frame_free(frame)
            try:
                failure = self.frame_loan(
                    FLAG_REPLY | FLAG_FAIL, priority, function, initiator,
                    EXECUTIVE_TID, 0, 0, xfunction, initiator_context,
                    transaction_context,
                )
            except PoolExhausted:
                logger.warning(
                    "node %s: pool exhausted, failure reply to TiD %s lost",
                    self.node, initiator,
                )
                return
            self._route(failure)
            return
        self.frame_free(frame)

    def _enqueue(self, frame: Frame) -> None:
        """Push a frame for dispatch, marking its queue-entry time when
        a recorder is attached (queue wait rides the ``dispatch`` record);
        ``step``'s intake marks and pushes inbound frames itself."""
        if self.flightrec is not None:
            frame.trace_mark = self.clock.now_ns()
        self.scheduler.push(frame)

    def _dispatch_one(self) -> None:
        # Pop, look up, upcall, free (paper figure 4, step 8) — and tell
        # the observers: one begin before, one end after, on every exit.
        # ``step`` calls it only while the scheduler holds a frame.
        frame = self.scheduler.pop()
        observers = self.observers
        outer = self._dispatching  # not None while a handler pumps
        if observers:
            # Filled before the upcall (the handler may free the frame)
            # and lent, not allocated: an outermost dispatch refills the
            # executive's one record, a nested one gets its own, so the
            # outer record's fields survive (DESIGN §8).
            rec = (self._record if outer is None else DispatchRecord(
                self.node)).fill(frame, self.clock.now_ns())
            for observer in observers:
                observer.dispatch_begin(rec)
        outcome = OUTCOME_ABORTED  # until an exit below says otherwise
        released = False
        try:
            try:
                device = self._devices.get(frame._target)
                if device is None:
                    # Device vanished between queueing and dispatch.
                    self.frame_free(frame)
                    self.dropped += 1
                    outcome = OUTCOME_VANISHED
                    return
                handler = device.table.lookup(frame).prepare(frame)
                self._dispatching = frame
                if self.watchdog is not None:
                    with self.watchdog.guard(label=device.name):
                        result = handler(frame)
                else:
                    result = handler(frame)
                outcome = OUTCOME_OK
            except WatchdogTimeout as exc:
                self._quarantine(frame.target, str(exc))
                result, outcome = None, OUTCOME_WATCHDOG
            except Exception as exc:  # fault tolerance: a bad handler must
                # never take the executive down (paper §3.2)
                self._handler_failed(frame, exc)
                result, outcome = None, OUTCOME_HANDLER_ERROR
            except BaseException:
                # A non-Exception escape — crash injection
                # (repro.analysis.crashpoints), KeyboardInterrupt — is
                # *meant* to take the loop of control down; ``except
                # Exception`` above deliberately lets it through.  But the
                # frame being dispatched must still return to its pool, or
                # the simulated process death leaks a real block.  Nor
                # may this dispatch stay the running one: a later one
                # would count as nested and never get the lent record.
                self.frame_free(frame)
                self._dispatching = outer
                raise
            self._dispatching = outer
            self.dispatched += 1
            block = frame.block
            if result is not RETAIN and block is not None:
                # frame_free's body without its release record: this
                # release rides the dispatch record (``rec.released``).
                # A handler that freed the frame itself left ``block``
                # None; a RETAINed frame is freed later, with a record.
                frame.block = None
                block.release()
                released = True
        finally:
            if observers:
                rec.end_ns, rec.outcome, rec.released = (
                    self.clock.now_ns(), outcome, released)
                for observer in observers:
                    observer.dispatch_end(rec)

    def _handler_failed(self, frame: Frame, exc: Exception) -> None:
        """Count and log a handler exception; the initiator of a
        request gets the standard failure reply."""
        self.handler_errors += 1
        logger.error(
            "node %s: handler error for %s at TiD %d: %s",
            self.node, function_name(frame.function), frame.target, exc,
        )
        device = self._devices.get(frame.target)
        if device is None or frame.is_reply or frame.initiator == frame.target:
            return
        try:
            device.reply(frame, fail=True)
        except I2OError:  # pragma: no cover - defensive
            logger.exception("failure reply failed")

    def _quarantine(self, tid: Tid, reason: str) -> None:
        """Watchdog action: mark the device FAILED and drop its queue."""
        device = self._devices.get(tid)
        if device is None:
            return
        logger.error("node %s: quarantining TiD %d: %s", self.node, tid, reason)
        device.state = DeviceState.FAILED
        if self.flightrec is not None:
            self.flightrec.record(EV_WATCHDOG_TRIP, int(tid))
        for frame in self.scheduler.drop_device(tid):
            self.frame_free(frame)
        if self.flightrec is not None:
            self.flightrec.spill("watchdog")
