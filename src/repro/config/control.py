"""Primary/secondary host control.

Paper §3.5: *"In a distributed I2O environment in which IOPs do not
reside on the same bus segment, a primary host controls all processing
nodes.  Secondary hosts may register and subsequently apply for
control rights."*

:class:`HostController` is a device installed on the controlling
host's executive.  Every control action is an I2O **executive message**
sent to the remote executive's TiD 0 (never an out-of-band call), and
the Tcl-ish configuration language drives it through
:meth:`bind_tcl`, reproducing the paper's Tcl-script-on-primary-host
setup.
"""

from __future__ import annotations

from typing import Any

from repro.core.device import decode_params, encode_params
from repro.core.registry import download_module
from repro.core.request import Requester
from repro.config.tclish import TclError, TclInterp, format_list
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.function_codes import (
    EXEC_LCT_NOTIFY,
    EXEC_STATUS_GET,
    EXEC_SYS_ENABLE,
    EXEC_SYS_HALT,
    EXEC_SYS_QUIESCE,
    UTIL_PARAMS_GET,
    UTIL_PARAMS_SET,
)
from repro.i2o.tid import EXECUTIVE_TID, Tid


class ControlError(I2OError):
    """Control-plane failure (timeout, refused rights, failed reply)."""


class HostController(Requester):
    """A (primary or secondary) control point for the cluster.

    Every verb is one :meth:`rpc` — a synchronous
    :meth:`~repro.core.request.Requester.ask` whose failure reply or
    timeout surfaces as :class:`ControlError`, so a dead node cannot
    hang the control script (DESIGN §5, "Request/reply correlation",
    has the waiting contract).
    """

    device_class = "host_controller"
    error_type = ControlError

    def __init__(
        self,
        name: str = "host",
        *,
        primary: bool = True,
        **requester: Any,
    ) -> None:
        super().__init__(name, **requester)
        self.primary = primary
        self._exec_proxies: dict[int, Tid] = {}
        #: secondary controllers that registered (paper §3.5)
        self.secondaries: list[str] = []
        self.control_holder: str = name if primary else ""

    def on_plugin(self) -> None:
        self.table.bind_default(self.handle_reply)
        # A controller consumes replies to the utility messages it
        # issues; rebind the standard handlers (which would swallow
        # them) to the reply handler.
        self.table.bind(UTIL_PARAMS_GET, self.handle_reply)
        self.table.bind(UTIL_PARAMS_SET, self.handle_reply)

    def on_unsolicited(self, frame: Frame) -> None:
        # Foreign requests are refused; the controller's own are ignored.
        if frame.initiator != self.tid:
            super().on_unsolicited(frame)

    # -- control rights ---------------------------------------------------------
    def register_secondary(self, name: str) -> None:
        if name not in self.secondaries:
            self.secondaries.append(name)

    def apply_for_control(self, name: str) -> bool:
        """A registered secondary applies for control rights; granted
        only when the primary has released them."""
        if name not in self.secondaries:
            raise ControlError(f"host {name!r} never registered")
        if self.control_holder and self.control_holder != name:
            return False
        self.control_holder = name
        return True

    def release_control(self) -> None:
        self.control_holder = ""

    def _require_control(self) -> None:
        if self.control_holder != self.name:
            raise ControlError(
                f"host {self.name!r} does not hold control rights "
                f"(holder: {self.control_holder or 'none'})"
            )

    # -- executive proxies ------------------------------------------------------
    def connect(self, node: int) -> Tid:
        """Create (once) the proxy for node's executive (TiD 0)."""
        exe = self._require_live()
        proxy = self._exec_proxies.get(node)
        if proxy is None:
            proxy = exe.routes.create_proxy(node, EXECUTIVE_TID)
            self._exec_proxies[node] = proxy
        return proxy

    # -- synchronous command/reply -----------------------------------------------
    def rpc(
        self,
        target: Tid,
        function: int,
        payload: bytes = b"",
        *,
        xfunction: int = 0,
    ) -> bytes:
        """Send one control message and wait for its reply."""
        self._require_control()
        failed, data = self.ask(
            target, payload, function=function, xfunction=xfunction,
            priority=1,  # control traffic outranks data
        )
        if failed:
            raise ControlError(
                f"node rejected control message 0x{function:02X}"
            )
        return data

    # -- high-level verbs ---------------------------------------------------------
    def status(self, node: int) -> dict[str, str]:
        return decode_params(self.rpc(self.connect(node), EXEC_STATUS_GET))

    def lct(self, node: int) -> dict[str, str]:
        """The node's logical configuration table (tid -> device class)."""
        return decode_params(self.rpc(self.connect(node), EXEC_LCT_NOTIFY))

    def enable(self, node: int) -> None:
        self.rpc(self.connect(node), EXEC_SYS_ENABLE)

    def quiesce(self, node: int) -> None:
        self.rpc(self.connect(node), EXEC_SYS_QUIESCE)

    def halt(self, node: int) -> None:
        self.rpc(self.connect(node), EXEC_SYS_HALT)

    def get_params(self, node: int, tid: Tid, *keys: str) -> dict[str, str]:
        exe = self._require_live()
        proxy = exe.routes.create_proxy(node, tid)
        payload = encode_params({k: "" for k in keys}) if keys else b""
        return decode_params(self.rpc(proxy, UTIL_PARAMS_GET, payload))

    def set_params(self, node: int, tid: Tid, params: dict[str, str]) -> None:
        exe = self._require_live()
        proxy = exe.routes.create_proxy(node, tid)
        self.rpc(proxy, UTIL_PARAMS_SET, encode_params(params))

    # -- Tcl integration --------------------------------------------------------------
    def bind_tcl(self, interp: TclInterp, executives: dict[int, object]) -> None:
        """Expose control verbs as script commands.

        ``executives`` maps node id → local :class:`Executive` for the
        one verb (``module``) that must inject code — the paper
        downloads compiled object code through the control channel; we
        hand source text to :func:`download_module` on the target.
        """

        def cmd_connect(_i: TclInterp, args: list[str]) -> str:
            return str(self.connect(int(args[0])))

        def cmd_status(_i: TclInterp, args: list[str]) -> str:
            status = self.status(int(args[0]))
            return format_list([f"{k}={v}" for k, v in sorted(status.items())])

        def cmd_enable(_i: TclInterp, args: list[str]) -> str:
            self.enable(int(args[0]))
            return ""

        def cmd_quiesce(_i: TclInterp, args: list[str]) -> str:
            self.quiesce(int(args[0]))
            return ""

        def cmd_halt(_i: TclInterp, args: list[str]) -> str:
            self.halt(int(args[0]))
            return ""

        def cmd_param(_i: TclInterp, args: list[str]) -> str:
            # param get <node> <tid> <key> | param set <node> <tid> <key> <value>
            if len(args) >= 4 and args[0] == "get":
                values = self.get_params(int(args[1]), int(args[2]), args[3])
                return values.get(args[3], "")
            if len(args) == 5 and args[0] == "set":
                self.set_params(int(args[1]), int(args[2]), {args[3]: args[4]})
                return ""
            raise TclError(
                'usage: param get node tid key | param set node tid key value'
            )

        def cmd_module(_i: TclInterp, args: list[str]) -> str:
            # module <node> <class_name> <source>
            if len(args) != 3:
                raise TclError("usage: module node className source")
            node = int(args[0])
            target = executives.get(node)
            if target is None:
                raise TclError(f"unknown node {node}")
            self._require_control()
            tid = download_module(target, args[2], args[1])  # type: ignore[arg-type]
            return str(tid)

        def cmd_lct(_i: TclInterp, args: list[str]) -> str:
            table = self.lct(int(args[0]))
            return format_list([f"{k}:{v}" for k, v in sorted(table.items())])

        interp.register("connect", cmd_connect)
        interp.register("status", cmd_status)
        interp.register("enable", cmd_enable)
        interp.register("quiesce", cmd_quiesce)
        interp.register("halt", cmd_halt)
        interp.register("param", cmd_param)
        interp.register("module", cmd_module)
        interp.register("lct", cmd_lct)
