"""Device classes: the unit of application composition.

Paper §3.3: *"In our view, an application is merely a new, private
'device' class.  In addition to the standard messages it provides code
for all the private messages that are defined for this application
class by the programmer."*

:class:`Listener` is the reproduction's ``i2oListener``: it carries a
local dispatch table pre-bound with the standard **utility** and
**executive** message handlers (so every device is configurable and
controllable from day one, with fault-tolerant defaults), plus helpers
to allocate, send and reply to frames through its executive.
Subclasses bind private messages with :meth:`bind` and override the
``on_*`` lifecycle hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.dispatcher import DispatchTable, Handler
from repro.core.states import DeviceState, check_transition
from repro.i2o.errors import I2OError
from repro.i2o.frame import DEFAULT_PRIORITY, FLAG_FAIL, FLAG_REPLY, Frame
from repro.i2o.function_codes import (
    EXEC_DDM_ENABLE,
    EXEC_DDM_QUIESCE,
    EXEC_DDM_RESET,
    EXEC_INTERRUPT,
    EXEC_TIMER_EXPIRED,
    PRIVATE,
    UTIL_ABORT,
    UTIL_CLAIM,
    UTIL_EVENT_ACKNOWLEDGE,
    UTIL_EVENT_REGISTER,
    UTIL_NOP,
    UTIL_PARAMS_GET,
    UTIL_PARAMS_SET,
)
from repro.i2o.tid import Tid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executive import Executive
    from repro.core.timer import Carried
    from repro.dataflow.registry import MessageType
    from repro.dataflow.routing import Edge, TypeRoutes

#: Sentinel a handler returns to take ownership of the frame's block
#: (suppressing the executive's automatic post-dispatch frame release).
RETAIN = object()


def encode_params(params: dict[str, str]) -> bytes:
    """Encode a parameter map for UtilParams{Get,Set} payloads."""
    for key, value in params.items():
        if "=" in key or "\n" in key or "\n" in str(value):
            raise I2OError(f"illegal characters in parameter {key!r}")
    return "\n".join(f"{k}={v}" for k, v in sorted(params.items())).encode("utf-8")


def decode_params(payload: bytes | memoryview) -> dict[str, str]:
    text = bytes(payload).decode("utf-8")
    result: dict[str, str] = {}
    # "\n" only: encode_params lets every other line break through.
    for line in text.split("\n"):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise I2OError(f"malformed parameter line {line!r}")
        result[key] = value
    return result


class Listener:
    """Base class for all device modules (applications, transports, ...).

    The constructor only creates local structure; the device becomes
    live when the executive calls :meth:`plugin` (paper §4: *"a plugin
    method that is not defined by I2O is called by the executive, which
    allows us to register the downloaded object.  At this point the
    newly created class can obtain its TiD and retrieve parameter
    settings from the executive."*).
    """

    #: Class-level device-class name (I2O device class analogue).
    device_class = "private"

    #: Dataflow contract — the message types this class receives and
    #: originates.  Bootstrap reads these to build the static DAG and
    #: derive route tables; an empty contract means the device stays
    #: outside the dataflow layer entirely.
    consumes: "tuple[MessageType, ...]" = ()
    emits: "tuple[MessageType, ...]" = ()
    #: Inbound queue share (frames) granted to this device's consumed
    #: types; ``None`` falls back to the spec's ``edge_credits``.
    queue_capacity: int | None = None
    #: Opt out of the runtime thread-affinity guard
    #: (:mod:`repro.analysis.sanitize`).  Devices that run their own
    #: threads and serialise state with explicit locks (peer
    #: transports) set this True.
    affinity_exempt = False
    #: Timers ``Executive.uninstall`` took out, for ``install`` to re-arm.
    carried_timers: "tuple[Carried, ...]" = ()

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self.table = DispatchTable(owner=self.name)
        self.executive: "Executive | None" = None
        self.tid: Tid | None = None
        self.state = DeviceState.INITIALISED
        self.parameters: dict[str, str] = {}
        self._event_subscribers: list[Tid] = []
        self._claimed_by: Tid | None = None
        self._type_routes: dict[str, "TypeRoutes"] = {}
        self._bind_standard()

    # -- standard message sets ---------------------------------------------
    def _bind_standard(self) -> None:
        self.table.bind(UTIL_NOP, self._on_nop)
        self.table.bind(UTIL_ABORT, self._on_abort)
        self.table.bind(UTIL_PARAMS_GET, self._on_params_get)
        self.table.bind(UTIL_PARAMS_SET, self._on_params_set)
        self.table.bind(UTIL_CLAIM, self._on_claim)
        self.table.bind(UTIL_EVENT_REGISTER, self._on_event_register)
        self.table.bind(EXEC_DDM_ENABLE, self._on_ddm_enable)
        self.table.bind(EXEC_DDM_QUIESCE, self._on_ddm_quiesce)
        self.table.bind(EXEC_DDM_RESET, self._on_ddm_reset)
        self.table.bind(EXEC_TIMER_EXPIRED, self._on_timer_frame)
        self.table.bind(EXEC_INTERRUPT, self._on_interrupt_frame)
        # The fault-tolerant default: unknown messages get a failure
        # reply instead of crashing the device (paper §3.2).
        self.table.bind_default(self._on_unhandled)

    # -- lifecycle ------------------------------------------------------------
    def plugin(self, executive: "Executive", tid: Tid) -> None:
        """Called by the executive at registration time."""
        self.executive = executive
        self.tid = tid
        self.on_plugin()

    def unplug(self) -> None:
        self.on_unplug()
        self.executive = None
        self.tid = None

    def set_state(self, target: DeviceState) -> None:
        self.state = check_transition(self.state, target)

    # Subclass hooks --------------------------------------------------------
    def on_plugin(self) -> None:
        """Override: obtain parameters, create proxies, bind messages."""

    def on_unplug(self) -> None:
        """Override: release resources before removal."""

    def on_enable(self) -> None:
        """Override: transition into active data taking."""

    def on_quiesce(self) -> None:
        """Override: drain and pause."""

    def on_reset(self) -> None:
        """Override: return to post-plugin state."""

    def on_timer(self, context: int, frame: Frame) -> None:
        """Override: a timer registered with ``start_timer`` expired."""

    def on_interrupt(self, irq: int, frame: Frame) -> None:
        """Override: an interrupt this device registered for fired
        (paper §3.2: interrupts arrive as messages)."""

    # -- messaging helpers ----------------------------------------------------
    def _require_live(self) -> "Executive":
        if self.executive is None or self.tid is None:
            raise I2OError(f"device {self.name!r} is not plugged in")
        return self.executive

    def alloc_frame(
        self,
        payload_size: int,
        *,
        target: Tid,
        xfunction: int = 0,
        function: int = PRIVATE,
        priority: int = DEFAULT_PRIORITY,
        flags: int = 0,
    ) -> Frame:
        """Allocate a pool-backed frame addressed from this device."""
        exe = self._require_live()
        return exe.frame_alloc(
            payload_size,
            target=target,
            initiator=self.tid,
            function=function,
            xfunction=xfunction,
            priority=priority,
            flags=flags,
        )

    def _post(
        self,
        target: Tid,
        function: int,
        xfunction: int,
        priority: int,
        flags: int,
        organization: int,
        transaction_context: int,
        initiator_context: int,
        size: int,
        payload: bytes | bytearray | memoryview | None,
        writer: Callable[[memoryview], None] | None,
    ) -> Frame:
        """The one frame-post path under :meth:`send`, :meth:`reply`,
        :meth:`emit` and their ``*_into`` forms: loan a frame, fill it
        (copy ``payload`` in, or let ``writer`` build it in place),
        post.  A fill that raises frees the frame.
        Positional on purpose: this runs once per message."""
        exe = self._require_live()
        frame = exe.frame_alloc(
            size,
            target=target,
            initiator=self.tid,
            function=function,
            xfunction=xfunction,
            priority=priority,
            flags=flags,
            organization=organization,
            initiator_context=initiator_context,
            transaction_context=transaction_context,
        )
        if size:
            try:
                if writer is None:
                    frame.payload[:] = payload
                else:
                    writer(frame.payload)
            except BaseException:
                exe.frame_free(frame)
                raise
        exe.frame_send(frame)
        return frame

    def send(
        self,
        target: Tid,
        payload: bytes | bytearray | memoryview = b"",
        *,
        xfunction: int = 0,
        function: int = PRIVATE,
        priority: int = DEFAULT_PRIORITY,
        transaction_context: int = 0,
        initiator_context: int = 0,
        organization: int = 0,
    ) -> Frame:
        """frameSend: build a pool frame carrying ``payload`` and post it."""
        return self._post(
            target, function, xfunction, priority, 0, organization,
            transaction_context, initiator_context,
            len(payload), payload, None,
        )

    def send_into(
        self,
        target: Tid,
        payload_size: int,
        writer: Callable[[memoryview], None],
        *,
        xfunction: int = 0,
        function: int = PRIVATE,
        priority: int = DEFAULT_PRIORITY,
        transaction_context: int = 0,
        initiator_context: int = 0,
        organization: int = 0,
    ) -> Frame:
        """frameSend, zero-copy form: ``writer`` builds the payload
        directly in the loaned frame instead of handing over assembled
        bytes.  ``writer`` raising frees the frame; nothing is posted.
        """
        return self._post(
            target, function, xfunction, priority, 0, organization,
            transaction_context, initiator_context,
            payload_size, None, writer,
        )

    # -- typed dataflow API ---------------------------------------------------
    def connect_route(
        self,
        mtype: "MessageType",
        targets: dict[Any, Tid],
        *,
        edges: "dict[Any, Edge] | None" = None,
        replace: bool = False,
    ) -> "TypeRoutes":
        """Install the route table for one emitted message type.

        ``targets`` maps consumer ``dataflow_key`` -> TiD and is held
        by reference — callers may share one live dict between types so
        a supervision drop updates all of them.
        :func:`~repro.dataflow.wiring.wire_dataflow` calls this from
        the declarations; a single-device unit test may install the
        same structure directly.
        """
        from repro.dataflow.routing import TypeRoutes

        if mtype.name in self._type_routes and not replace:
            raise I2OError(
                f"device {self.name!r} already has routes for "
                f"message type {mtype.name!r}"
            )
        routes = TypeRoutes(mtype, targets, edges)
        self._type_routes[mtype.name] = routes
        return routes

    def routes_for(self, mtype: "MessageType | str") -> "TypeRoutes | None":
        name = mtype if isinstance(mtype, str) else mtype.name
        return self._type_routes.get(name)

    def dataflow_targets(self, mtype: "MessageType | str") -> dict[Any, Tid]:
        """The live key -> TiD mapping for one emitted type (empty when
        no routes are installed)."""
        routes = self.routes_for(mtype)
        return routes.targets if routes is not None else {}

    def drop_route_target(
        self, key: Any, *, types: "tuple[MessageType, ...]"
    ) -> int:
        """Supervision hook: the consumer keyed ``key`` died — remove
        it from the route tables of ``types`` (reclaiming its credits)
        and return how many tables dropped it.  The types are named
        because keys are only unique per type: ru 0 and bu 0 are
        different consumers."""
        exe = self.executive
        ledger = exe.dataflow if exe is not None else None
        dropped = 0
        for mtype in types:
            routes = self._type_routes.get(mtype.name)
            if routes is not None and routes.drop(key, ledger):
                dropped += 1
        return dropped

    def drop_unreachable_targets(
        self, node: int, *, types: "tuple[MessageType, ...]"
    ) -> list[Any]:
        """Supervision hook: ``node`` died — drop every target of
        ``types`` (which share their keys) whose route is parked or
        still leads there after discovery's failover pass; a proxy
        that was re-bound elsewhere is kept.  Returns the keys."""
        exe = self._require_live()
        dead = []
        for key, tid in self.dataflow_targets(types[0]).items():
            route = exe.route_for(tid)
            if route is not None and (route.parked or route.node == node):
                dead.append(key)
        for key in dead:
            self.drop_route_target(key, types=types)
        return dead

    def on_dataflow_connected(self) -> None:
        """Override: this device's route tables are installed (all
        ``connect_route`` calls done, graph analysed)."""

    def emit(
        self,
        mtype: "MessageType",
        payload: bytes | bytearray | memoryview = b"",
        *,
        key: Any | None = None,
        transaction_context: int = 0,
        initiator_context: int = 0,
    ) -> int:
        """Typed frameSend: post ``payload`` along the declared route.

        ``mode="one"`` needs no key (there is a single consumer);
        ``mode="keyed"`` selects one consumer by ``key``;
        ``mode="fanout"`` posts one frame per installed target.  When
        the routes carry backpressure edges, a saturated edge parks the
        payload in the node's outbox or sheds it, per the type's
        ``on_saturation`` policy.  Returns the number of frames posted
        *now* (parked/shed emissions are not counted).
        """
        routes = self._routes_required(mtype)
        if mtype.mode == "fanout":
            keys = list(routes.targets)
        else:
            keys = [self._resolve_key(routes, key)]
        exe = self._require_live()
        ledger = exe.dataflow
        edges = routes.edges
        size = len(payload)
        sent = 0
        for k in keys:
            edge = edges.get(k) if edges is not None else None
            if edge is not None and ledger is not None \
                    and not ledger.try_acquire(edge):
                self._saturated(exe, routes, k, edge, bytes(payload),
                                transaction_context, initiator_context)
                continue
            self._post(
                routes.targets[k], mtype.function, mtype.xfunction,
                mtype.priority, 0, mtype.organization,
                transaction_context, initiator_context,
                size, payload, None,
            )
            sent += 1
        return sent

    def _routes_required(self, mtype: "MessageType") -> "TypeRoutes":
        routes = self._type_routes.get(mtype.name)
        if routes is None:
            raise I2OError(
                f"device {self.name!r} has no route for message type "
                f"{mtype.name!r}; declare it in 'emits' and wire the "
                f"cluster (bootstrap, or repro.dataflow.wiring.wire_dataflow)"
            )
        return routes

    def _resolve_key(self, routes: "TypeRoutes", key: Any) -> Any:
        if key is not None:
            if key not in routes.targets:
                raise I2OError(
                    f"device {self.name!r}: no consumer keyed {key!r} "
                    f"for message type {routes.mtype.name!r} "
                    f"(known: {sorted(map(repr, routes.targets))})"
                )
            return key
        if len(routes.targets) != 1:
            raise I2OError(
                f"device {self.name!r}: message type "
                f"{routes.mtype.name!r} has {len(routes.targets)} "
                f"targets; pass key=..."
            )
        return next(iter(routes.targets))

    def _saturated(
        self,
        exe: "Executive",
        routes: "TypeRoutes",
        key: Any,
        edge: "Edge",
        payload: bytes,
        transaction_context: int,
        initiator_context: int,
    ) -> None:
        """The edge is out of credits: park or shed per policy."""
        from repro.flightrec.records import (
            EV_DATAFLOW_PARK,
            EV_DATAFLOW_SHED,
            pack3,
        )

        mtype = routes.mtype
        outbox = exe.dataflow_outbox
        parked = (
            mtype.on_saturation == "park"
            and outbox is not None
            and outbox.park(self, mtype, key, edge, payload,
                            transaction_context, initiator_context)
        )
        if not parked and exe.dataflow is not None:
            exe.dataflow.note_shed(exe.node)
        if exe.flightrec is not None:
            exe.flightrec.record(
                EV_DATAFLOW_PARK if parked else EV_DATAFLOW_SHED,
                pack3(edge.consumer_node, edge.consumer_tid,
                      mtype.xfunction),
                outbox.depth if outbox is not None else 0,
            )

    def reply(
        self,
        request: Frame,
        payload: bytes | bytearray | memoryview = b"",
        *,
        fail: bool = False,
    ) -> Frame:
        """frameReply: answer ``request``, echoing its contexts."""
        return self._post(
            request.initiator, request.function, request.xfunction,
            request.priority, FLAG_REPLY | (FLAG_FAIL if fail else 0),
            request.organization,
            request.transaction_context, request.initiator_context,
            len(payload), payload, None,
        )

    def reply_into(
        self,
        request: Frame,
        payload_size: int,
        writer: Callable[[memoryview], None],
        *,
        fail: bool = False,
    ) -> Frame:
        """frameReply, zero-copy form: like :meth:`send_into` but
        echoing ``request``'s addressing and contexts."""
        return self._post(
            request.initiator, request.function, request.xfunction,
            request.priority, FLAG_REPLY | (FLAG_FAIL if fail else 0),
            request.organization,
            request.transaction_context, request.initiator_context,
            payload_size, None, writer,
        )

    def bind(self, xfunction: int, handler: Handler) -> None:
        """Bind a private message of this application class."""
        self.table.bind(PRIVATE, handler, xfunction=xfunction)

    def start_timer(
        self, delay_ns: int, context: int = 0, period_ns: int | None = None
    ) -> int:
        """Arm a timer; expiry arrives as an EXEC_TIMER_EXPIRED frame
        routed through the ordinary queues (paper §3.2: even timer
        expirations trigger messages).  A ``period_ns`` keeps the timer
        re-arming itself until cancelled."""
        exe = self._require_live()
        return exe.timers.start(
            owner=self.tid, delay_ns=delay_ns, context=context,
            period_ns=period_ns,
        )

    def cancel_timer(self, timer_id: int) -> bool:
        exe = self._require_live()
        return exe.timers.cancel(timer_id)

    def notify_event(self, payload: bytes = b"") -> int:
        """Send UtilEventAcknowledge-style notifications to all TiDs
        that registered with UtilEventRegister; returns count."""
        for tid in self._event_subscribers:
            self.send(tid, payload, function=UTIL_EVENT_ACKNOWLEDGE)
        return len(self._event_subscribers)

    # -- standard handlers -----------------------------------------------------
    def _on_nop(self, frame: Frame) -> None:
        if not frame.is_reply:
            self.reply(frame)

    def _on_abort(self, frame: Frame) -> None:
        self.on_reset()
        if not frame.is_reply:
            self.reply(frame)

    def export_counters(self) -> dict[str, object]:
        """Override to publish live counters through UtilParamsGet —
        the uniform observation scheme of paper §2 (system management)."""
        return {}

    def _on_params_get(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self.parameters.update(
            {key: str(value) for key, value in self.export_counters().items()}
        )
        if frame.payload_size:
            keys = decode_params(frame.payload).keys()
            subset = {k: self.parameters.get(k, "") for k in keys}
        else:
            subset = dict(self.parameters)
        self.reply(frame, encode_params(subset))

    def _on_params_set(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        try:
            updates = decode_params(frame.payload)
            self.on_parameters(updates)
            self.parameters.update(updates)
        except I2OError:
            self.reply(frame, fail=True)
        else:
            self.reply(frame)

    def on_parameters(self, updates: dict[str, str]) -> None:
        """Override to validate/apply parameter updates (raise
        :class:`I2OError` to refuse them)."""

    def _on_claim(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        if self._claimed_by is not None and self._claimed_by != frame.initiator:
            self.reply(frame, fail=True)
        else:
            self._claimed_by = frame.initiator
            self.reply(frame)

    def _on_event_register(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        if frame.initiator not in self._event_subscribers:
            self._event_subscribers.append(frame.initiator)
        self.reply(frame)

    def _on_ddm_enable(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self.set_state(DeviceState.ENABLED)
        self.on_enable()
        self.reply(frame)

    def _on_ddm_quiesce(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self.set_state(DeviceState.QUIESCED)
        self.on_quiesce()
        self.reply(frame)

    def _on_ddm_reset(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self.state = DeviceState.INITIALISED
        self.on_reset()
        self.reply(frame)

    def _on_timer_frame(self, frame: Frame) -> None:
        self.on_timer(frame.transaction_context, frame)

    def _on_interrupt_frame(self, frame: Frame) -> None:
        self.on_interrupt(frame.transaction_context, frame)

    def _on_unhandled(self, frame: Frame) -> None:
        """Default procedure for messages with no supplied code."""
        if not frame.is_reply:
            self.reply(frame, fail=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} tid={self.tid}>"


class FunctionalListener(Listener):
    """A listener assembled from plain callables, for quick tests and
    scripts: ``FunctionalListener(handlers={0x01: fn})``."""

    def __init__(
        self,
        name: str = "",
        handlers: dict[int, Callable[[Frame], Any]] | None = None,
    ) -> None:
        super().__init__(name)
        for xfunc, handler in (handlers or {}).items():
            self.bind(xfunc, handler)
