"""The executive's own device personality (TiD 0): its message set.

Paper §3.5: "All modules, user applications, the peer transports and
even the executive get such a TiD.  Thus, they are all valid I2O
devices."
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.device import Listener, decode_params, encode_params
from repro.core.states import DeviceState
from repro.i2o.errors import I2OError
from repro.i2o.frame import NUM_PRIORITIES, Frame
from repro.i2o.function_codes import (
    EXEC_DDM_DESTROY,
    EXEC_LCT_NOTIFY,
    EXEC_PATH_CLAIM,
    EXEC_STATUS_GET,
    EXEC_SYS_ENABLE,
    EXEC_SYS_HALT,
    EXEC_SYS_QUIESCE,
)
from repro.i2o.tid import EXECUTIVE_TID, PTA_TID, Tid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executive import Executive


class ExecutiveDevice(Listener):
    """TiD 0 on every node: the executive as an I2O device."""

    device_class = "executive"
    metric_kind = ""

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
                    "rebinds": str(exe.routes.rebinds),
                    "parks": str(exe.routes.parks),
                    "peers_dead": str(len(exe.peers.dead_nodes())),
                }
            ),
        )

    def export_counters(self) -> dict[str, object]:
        """The node's core series: dispatch, scheduler, pool and timers."""
        exe = self._exe
        scheduler = exe.scheduler
        watchdog = exe.watchdog
        return {
            "exe_dispatched_total": exe.dispatched,
            "exe_dropped_total": exe.dropped,
            "exe_handler_errors_total": exe.handler_errors,
            "exe_route_rebinds_total": exe.routes.rebinds,
            "exe_route_parks_total": exe.routes.parks,
            "exe_devices": len(exe._devices),
            "exe_scheduler_depth": len(scheduler),
            **{f"exe_fifo_depth_p{priority}": scheduler.depth_of(priority)
               for priority in range(NUM_PRIORITIES)},
            "exe_scheduler_pushed_total": scheduler.pushed,
            "exe_watchdog_trips_total": watchdog.overruns if watchdog else 0,
            "pool_blocks_in_flight": exe.pool.in_flight,
            "pool_bytes_internal_fragmentation": exe.pool.internal_fragmentation,
            "timer_fired_total": exe.timers.fired,
        }

    def _set_all_states(self, target: DeviceState) -> list[Tid]:
        """Drive every application device to ``target``; returns failures."""
        failures: list[Tid] = []
        for tid, dev in self._exe.devices().items():
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
        self._exe.state = target
        return failures

    def _broadcast_state(self, frame: Frame, target: DeviceState) -> None:
        if frame.is_reply:
            return
        failures = self._set_all_states(target)
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
            str(tid): dev.device_class for tid, dev in self._exe.devices().items()
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
        A node id or TiD out of range is a failure reply, and so is a
        ``transport`` this node's PTA has not registered (the reply
        names it): neither allocates a TiD.
        """
        if frame.is_reply:
            return
        pta = self._exe.pta
        try:
            request = decode_params(frame.payload)
            transport = request.get("transport") or None
            if transport is not None and (
                pta is None or transport not in {pt.name for pt in pta.transports()}
            ):
                error = f"no transport named {transport!r}"
                self.reply(frame, encode_params({"error": error}), fail=True)
                return
            proxy = self._exe.routes.create_proxy(
                int(request["node"]), int(request["tid"]), transport=transport
            )
        except (KeyError, ValueError, I2OError):
            self.reply(frame, fail=True)
        else:
            self.reply(frame, encode_params({"proxy": str(proxy)}))
