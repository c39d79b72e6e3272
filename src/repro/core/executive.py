"""The XDAQ executive: routing, dispatching, memory and lifecycle.

One executive runs per processing node.  It is deliberately *lean*
(paper §4: "After all, the executive is very lean as it acts only as a
delegate"): devices keep their own dispatch tables; the executive owns
only the loop of control, the frame memory, the TiD space and the
routes.  It carries no instrument: observers (:meth:`Executive.attach`)
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
import threading
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.device import RETAIN, Listener, decode_params, encode_params
from repro.core.interrupts import InterruptController
from repro.core.metrics import DISPATCH_LATENCY_BUCKETS_NS, MetricsRegistry
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
from repro.core.scheduler import PriorityScheduler
from repro.core.states import DeviceState, PeerTable
from repro.core.timer import TimerService
from repro.core.watchdog import HandlerWatchdog, WatchdogTimeout
from repro.flightrec.records import EV_HARD_STOP, EV_POOL_EXHAUSTED, EV_WATCHDOG_TRIP
from repro.hw.clock import Clock, WallClock
from repro.i2o.errors import AddressingError, I2OError
from repro.i2o.frame import (
    DEFAULT_PRIORITY,
    FLAG_FAIL,
    FLAG_REPLY,
    HEADER_SIZE,
    NUM_PRIORITIES,
    Frame,
    SharedFrame,
)
from repro.i2o.function_codes import (
    EXEC_DDM_DESTROY,
    EXEC_LCT_NOTIFY,
    EXEC_PATH_CLAIM,
    EXEC_STATUS_GET,
    EXEC_SYS_ENABLE,
    EXEC_SYS_HALT,
    EXEC_SYS_QUIESCE,
    PRIVATE,
    function_name,
)
from repro.i2o.tid import (
    EXECUTIVE_TID,
    MAX_NODE,
    PTA_TID,
    TID_BROADCAST,
    Tid,
    TidAllocator,
    check_tid,
)
from repro.mem.pool import BufferPool, PoolExhausted

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flightrec.recorder import FlightRecorder
    from repro.mem.block import PoolBlock
    from repro.transports.agent import PeerTransportAgent

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Route:
    """Where a proxy TiD leads: a device on another node.

    ``transport`` optionally pins the route to a named peer transport
    (paper §4: "As it is possible to configure each device instance
    with a route, we can use multiple transports to send and receive in
    parallel"); ``None`` lets the PTA pick its default for the node.

    A ``parked`` route belongs to a peer declared DEAD by the
    supervision layer and no replica could take it over: frames sent
    to it are dead-lettered, so the initiator receives the standard
    I2O failure reply instead of waiting forever.
    """

    node: int
    remote_tid: Tid
    transport: str | None = None
    parked: bool = False


class _ExecutiveDevice(Listener):
    """The executive's own device personality (TiD 0).

    Paper §3.5: "All modules, user applications, the peer transports
    and even the executive get such a TiD.  Thus, they are all valid
    I2O devices."
    """

    device_class = "executive"

    def __init__(self, executive: "Executive") -> None:
        super().__init__(name=f"executive@{executive.node}")
        self._exe = executive
        self.table.bind(EXEC_STATUS_GET, self._on_status_get)
        self.table.bind(EXEC_SYS_ENABLE, self._on_sys_enable)
        self.table.bind(EXEC_SYS_QUIESCE, self._on_sys_quiesce)
        self.table.bind(EXEC_SYS_HALT, self._on_sys_halt)
        self.table.bind(EXEC_LCT_NOTIFY, self._on_lct_notify)
        self.table.bind(EXEC_DDM_DESTROY, self._on_ddm_destroy)
        self.table.bind(EXEC_PATH_CLAIM, self._on_path_claim)

    def _on_status_get(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        exe = self._exe
        self.reply(
            frame,
            encode_params(
                {
                    "node": str(exe.node),
                    "state": exe.state.value,
                    "devices": str(len(exe.devices())),
                    "dispatched": str(exe.dispatched),
                    "dropped": str(exe.dropped),
                    "rebinds": str(exe.rebinds),
                    "parks": str(exe.parks),
                    "peers_dead": str(len(exe.peers.dead_nodes())),
                }
            ),
        )

    def _broadcast_state(self, frame: Frame, target: DeviceState) -> None:
        if frame.is_reply:
            return
        failures = self._exe._set_all_states(target)
        self.reply(frame, fail=bool(failures))

    def _on_sys_enable(self, frame: Frame) -> None:
        self._broadcast_state(frame, DeviceState.ENABLED)

    def _on_sys_quiesce(self, frame: Frame) -> None:
        self._broadcast_state(frame, DeviceState.QUIESCED)

    def _on_sys_halt(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self.reply(frame)
        self._exe.request_halt()

    def _on_lct_notify(self, frame: Frame) -> None:
        """Reply with the logical configuration table: tid=class pairs."""
        if frame.is_reply:
            return
        table = {
            str(tid): dev.device_class for tid, dev in self._exe._devices.items()
        }
        self.reply(frame, encode_params(table))

    def _on_ddm_destroy(self, frame: Frame) -> None:
        """Remove a device by TiD (ExecDdmDestroy over the wire).

        Payload: decimal TiD.  Infrastructure TiDs (executive, PTA,
        transports) are refused — a controller cannot saw off the
        branch the control channel sits on.
        """
        if frame.is_reply:
            return
        try:
            tid = int(bytes(frame.payload).decode("utf-8"))
            victim = self._exe.device(tid)
            if victim.device_class in (
                "executive", "peer_transport_agent", "peer_transport",
            ) or tid in (EXECUTIVE_TID, PTA_TID):
                raise I2OError(f"TiD {tid} is infrastructure")
            self._exe.uninstall(tid)
        except (ValueError, I2OError):
            self.reply(frame, fail=True)
        else:
            self.reply(frame)

    def _on_path_claim(self, frame: Frame) -> None:
        """Create a proxy on this node by request (ExecPathClaim).

        Payload: params map with ``node`` and ``tid`` (and optionally
        ``transport``); reply carries the local proxy TiD.  This is how
        a controller pre-builds routes for devices it is about to
        configure (paper §4: plugged-in classes trigger proxy creation).
        """
        if frame.is_reply:
            return
        try:
            request = decode_params(frame.payload)
            proxy = self._exe.create_proxy(
                int(request["node"]),
                int(request["tid"]),
                transport=request.get("transport") or None,
            )
        except (KeyError, ValueError, I2OError):
            self.reply(frame, fail=True)
        else:
            self.reply(frame, encode_params({"proxy": str(proxy)}))


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
        if isinstance(node, bool) or not isinstance(node, int) \
                or not 0 <= node <= MAX_NODE:
            raise AddressingError(
                f"node id must be an int in 0..{MAX_NODE}, got {node!r}"
            )
        self.node = node
        self.pool = pool if pool is not None else BufferPool()
        self.clock: Clock = clock if clock is not None else WallClock()
        self.watchdog = watchdog
        self.max_dispatch_per_step = max_dispatch_per_step
        self.metrics = MetricsRegistry()
        #: dispatch observers in attach order; copy-on-write, so the
        #: dispatch loop reads the tuple once per frame (:meth:`attach`)
        self.observers: tuple[DispatchObserver, ...] = ()
        #: plain references for the non-dispatch hook sites (trace stamp,
        #: enqueue mark / alloc / release / transmit records, emit-side
        #: credits); each is set by its owner when it attaches.  On a
        #: sim-plane node the cost ledger holds ``flightrec`` and passes
        #: the facts on to a recorder behind it.
        self.flightrec: "FlightRecorder | None" = None
        self.dataflow: Any = None  # the cluster's CreditLedger
        self.dataflow_outbox: Any = None  # this node's DataflowOutbox

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
        self._routes: dict[Tid, Route] = {}
        self._proxies: dict[tuple[int, Tid, str | None], Tid] = {}
        #: Serialises proxy/route table writes: task-mode transports
        #: call ``create_proxy`` from their receive threads while the
        #: loop of control rebinds/parks routes on the dispatch thread.
        self._route_lock = threading.Lock()
        self.pta: "PeerTransportAgent | None" = None
        #: polling-mode PTs (set by the PTA) and the dataflow outbox
        self._pollable: list[Any] = []

        # Peer liveness table (fed by a HeartbeatService, if installed).
        self.peers = PeerTable()

        self.dispatched = 0
        self.dropped = 0
        self.handler_errors = 0
        self.rebinds = 0
        self.parks = 0
        self._halt_requested = False
        self._thread: threading.Thread | None = None
        self._thread_stop = threading.Event()

        # Install the executive's own device personality at TiD 0.
        self.tids.reserve(EXECUTIVE_TID)
        self._self_device = _ExecutiveDevice(self)
        self._self_device.plugin(self, EXECUTIVE_TID)
        self._devices[EXECUTIVE_TID] = self._self_device
        self._names[self._self_device.name] = EXECUTIVE_TID

        self._register_core_metrics()

    def _register_core_metrics(self) -> None:
        """Expose hot-path state through callback gauges.

        The dispatch loop keeps bumping plain ints; the registry only
        reads them when a snapshot is taken, so being observable costs
        the hot path nothing.
        """
        m = self.metrics
        m.gauge("exe_dispatched_total", lambda: self.dispatched)
        m.gauge("exe_dropped_total", lambda: self.dropped)
        m.gauge("exe_handler_errors_total", lambda: self.handler_errors)
        m.gauge("exe_route_rebinds_total", lambda: self.rebinds)
        m.gauge("exe_route_parks_total", lambda: self.parks)
        m.gauge("exe_devices", lambda: len(self._devices))
        m.gauge("exe_scheduler_depth", lambda: len(self.scheduler))
        for priority in range(NUM_PRIORITIES):
            m.gauge(
                f"exe_fifo_depth_p{priority}",
                lambda p=priority: self.scheduler.depth_of(p),
            )
        m.gauge("exe_scheduler_pushed_total", lambda: self.scheduler.pushed)
        m.gauge("pool_blocks_in_flight", lambda: self.pool.in_flight)
        m.gauge(
            "pool_bytes_internal_fragmentation",
            lambda: self.pool.internal_fragmentation,
        )
        m.gauge("timer_fired_total", lambda: self.timers.fired)
        m.gauge(
            "exe_watchdog_trips_total",
            lambda: self.watchdog.overruns if self.watchdog is not None else 0,
        )
        # Registered empty so the exported names do not depend on
        # whether a flight recorder (which fills it) is attached.
        m.histogram("exe_dispatch_ns", DISPATCH_LATENCY_BUCKETS_NS)

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

    def _set_all_states(self, target: DeviceState) -> list[Tid]:
        """Drive every application device to ``target``; returns failures."""
        failures: list[Tid] = []
        for tid, dev in list(self._devices.items()):
            if tid == EXECUTIVE_TID:
                continue
            try:
                dev.set_state(target)
                if target is DeviceState.ENABLED:
                    dev.on_enable()
                elif target is DeviceState.QUIESCED:
                    dev.on_quiesce()
            except I2OError:
                failures.append(tid)
        self.state = target
        return failures

    # ------------------------------------------------------------------
    # proxies and routes
    # ------------------------------------------------------------------
    def create_proxy(
        self, node: int, remote_tid: Tid, transport: str | None = None
    ) -> Tid:
        """Allocate a local TiD standing in for a device on ``node``.

        Paper §3.4: "To communicate with a remote device, the executive
        creates a local TiD for the target device along with information
        how to reach this device ... compared to the Proxy pattern."
        Idempotent per ``(node, remote_tid)``.
        """
        key = (node, remote_tid, transport)
        # Every ingested frame asks; after the first the answer is one
        # dict read (atomic under the GIL), and an entry is only ever
        # inserted below, after ``check_tid`` passed.
        existing = self._proxies.get(key)
        if existing is not None:
            return existing
        check_tid(remote_tid)
        if node == self.node:
            # A proxy for a local device is just the device itself.
            return remote_tid
        with self._route_lock:
            existing = self._proxies.get(key)
            if existing is not None:
                return existing
            tid = self.tids.allocate()
            self._routes[tid] = Route(
                node=node, remote_tid=remote_tid, transport=transport)
            self._proxies[key] = tid
            return tid

    def route_for(self, tid: Tid) -> Route | None:
        return self._routes.get(tid)

    def routes_to(self, node: int, *, include_parked: bool = False) -> list[Tid]:
        """Proxy TiDs whose route currently leads to ``node``."""
        return sorted(
            tid for tid, route in self._routes.items()
            if route.node == node and (include_parked or not route.parked)
        )

    def rebind_route(
        self,
        proxy_tid: Tid,
        node: int,
        remote_tid: Tid,
        transport: str | None = None,
    ) -> Route:
        """Point an existing proxy at a different remote device.

        This is the failover primitive: every frame already addressed
        to ``proxy_tid`` — pending replies included — now reaches the
        replacement device, without any sender learning a new TiD.
        """
        old = self._routes.get(proxy_tid)
        if old is None:
            raise AddressingError(f"TiD {proxy_tid} is not a proxy")
        check_tid(remote_tid)
        if node == self.node:
            raise AddressingError("cannot rebind a route to the local node")
        new = Route(node=node, remote_tid=remote_tid, transport=transport)
        with self._route_lock:
            self._proxies.pop((old.node, old.remote_tid, old.transport), None)
            self._routes[proxy_tid] = new
            # Keep proxy idempotency pointing at the earliest binding.
            self._proxies.setdefault((node, remote_tid, transport), proxy_tid)
        self.rebinds += 1
        logger.info(
            "node %s: rebound proxy %d: %s:%d -> %s:%d",
            self.node, proxy_tid, old.node, old.remote_tid, node, remote_tid,
        )
        return new

    def park_route(self, proxy_tid: Tid) -> Route:
        """Mark a proxy's route unusable; senders get failure replies."""
        old = self._routes.get(proxy_tid)
        if old is None:
            raise AddressingError(f"TiD {proxy_tid} is not a proxy")
        if not old.parked:
            with self._route_lock:
                self._routes[proxy_tid] = Route(
                    node=old.node, remote_tid=old.remote_tid,
                    transport=old.transport, parked=True,
                )
            self.parks += 1
        return self._routes[proxy_tid]

    def unpark_route(self, proxy_tid: Tid) -> Route:
        """Restore a parked route (the peer rejoined)."""
        old = self._routes.get(proxy_tid)
        if old is None:
            raise AddressingError(f"TiD {proxy_tid} is not a proxy")
        if old.parked:
            with self._route_lock:
                self._routes[proxy_tid] = Route(
                    node=old.node, remote_tid=old.remote_tid,
                    transport=old.transport,
                )
        return self._routes[proxy_tid]

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
        buffer loaning).  The whole header goes down in one pack: the
        block's old bytes are never decoded.
        """
        size = HEADER_SIZE + payload_size
        # block_loan's body, inlined: a call is a measurable share of
        # a ping-pong's per-message cost.
        try:
            block = self.pool.alloc(size)
        except PoolExhausted:
            if self.flightrec is not None:
                self.flightrec.record(EV_POOL_EXHAUSTED, size)
            raise
        frame = Frame._undecoded(block.memory[:size], block)
        frame.set_header(
            target=target,
            initiator=initiator,
            function=function,
            payload_size=payload_size,
            priority=priority,
            flags=flags,
            xfunction=xfunction,
            organization=organization,
            initiator_context=initiator_context,
            transaction_context=transaction_context,
        )
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

        Pool-backed frames were header-validated at ``frame_alloc`` and
        their payload views cannot overrun the header, so only foreign
        buffers (hand-built bytearrays) are re-validated here; wire
        input is always validated at ingest.
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
        if frame.block is not None:
            if self.flightrec is not None:
                # Context read *before* the free: afterwards the
                # block may recycle under the sanitizer's poison.
                self.flightrec.note_release(frame.transaction_context)
            self.pool.free(frame.block)
            frame.block = None

    def post_inbound(self, frame: Frame) -> None:
        """Entry point for peer transports and the timer service."""
        self.msgi.post_inbound(frame)

    # ------------------------------------------------------------------
    # the loop of control
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """One scheduling quantum; returns True if any work was done."""
        worked = False
        if len(self.timers) and self.timers.poll(self.clock.now_ns()):
            worked = True
        if self.msgi.watched and self.msgi.service():
            worked = True
        for pt in self._pollable:
            if pt.poll():
                worked = True
        if self._route_outbound():
            worked = True
        if self._intake_inbound():
            worked = True
        for _ in range(self.max_dispatch_per_step):
            if not self._dispatch_one():
                break
            worked = True
            # Dispatching may have generated sends: route them before
            # the next dispatch so request/reply chains complete within
            # one call in single-threaded use.
            self._route_outbound()
            self._intake_inbound()
        return worked

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
                if not self.step() or scheduler.empty:
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
    def _route_outbound(self) -> bool:
        routed = False
        while (frame := self.msgi.take_outbound()) is not None:
            routed = True
            self._route(frame)
        return routed

    def _route(self, frame: Frame) -> None:
        target = frame.target
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
        """Deliver one shared, refcounted frame to every local device
        except the initiator.

        The paper's buffer loaning applied to fan-out: instead of N
        alloc+copy clones, every listener gets a :class:`SharedFrame`
        aliasing the same pool block (one ``addref`` per delivery);
        the block recycles when the last dispatch — or a RETAINing
        handler's eventual ``frame_free`` — drops its reference.
        """
        block = frame.block
        view = frame.view
        for tid in list(self._devices):
            if tid == frame.initiator:
                continue
            if block is not None:
                block.addref()
            self._enqueue(SharedFrame(view, block=block, target=tid))
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
                failure = self.frame_alloc(
                    0,
                    target=initiator,
                    initiator=EXECUTIVE_TID,
                    function=function,
                    xfunction=xfunction,
                    priority=priority,
                    flags=FLAG_REPLY | FLAG_FAIL,
                    initiator_context=initiator_context,
                    transaction_context=transaction_context,
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

    def _intake_inbound(self) -> bool:
        took = False
        while (frame := self.msgi.take_inbound()) is not None:
            took = True
            if frame.target in self._devices:
                self._enqueue(frame)
            else:
                self._dead_letter(frame, f"inbound for unknown TiD {frame.target}")
        return took

    def _enqueue(self, frame: Frame) -> None:
        """Push a frame for dispatch, marking its queue-entry time when
        a recorder is attached (queue wait rides the ``dispatch`` record)."""
        if self.flightrec is not None:
            frame.trace_mark = self.clock.now_ns()
        self.scheduler.push(frame)

    def _dispatch_one(self) -> bool:
        # Pop, look up, upcall, free (paper figure 4, step 8) — and tell
        # the observers: one begin before, one end after, on every exit.
        frame = self.scheduler.pop()
        if frame is None:
            return False
        observers = self.observers
        if observers:
            # Snapshot before the upcall: the handler may free the frame.
            rec = DispatchRecord(self.node, frame, self.clock.now_ns())
            for observer in observers:
                observer.dispatch_begin(rec)
        outcome = OUTCOME_ABORTED  # until an exit below says otherwise
        try:
            try:
                device = self._devices.get(frame.target)
                if device is None:
                    # Device vanished between queueing and dispatch.
                    self.frame_free(frame)
                    self.dropped += 1
                    outcome = OUTCOME_VANISHED
                    return True
                handler = device.table.lookup(frame).prepare(frame)
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
                # the simulated process death leaks a real block.
                self.frame_free(frame)
                raise
            self.dispatched += 1
            if result is not RETAIN:
                self.frame_free(frame)
        finally:
            if observers:
                rec.end_ns, rec.outcome = self.clock.now_ns(), outcome
                for observer in observers:
                    observer.dispatch_end(rec)
        return True

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
