"""The skeleton side: exposing methods as private I2O messages.

A :class:`RemoteObject` subclass marks methods with :func:`remote`;
each exposed method is bound to a private message whose
``XFunctionCode`` is a stable hash of the method name, so stub and
skeleton agree on codes without any registry exchange.  The skeleton
"scans the message and provides typed pointers to its contents"
(paper §4): arguments arrive as a marshalled ``(args, kwargs)`` pair.
"""

from __future__ import annotations

import zlib
from typing import Callable

from repro.core.device import Listener
from repro.i2o.frame import Frame
from repro.rmi.marshal import (
    MarshalError,
    marshal_parts,
    parts_size,
    unmarshal,
    write_parts,
)

#: xfunction codes 0xF000+ are reserved for framework use; method
#: hashes stay below.
_METHOD_CODE_SPACE = 0xF000


def method_code(name: str) -> int:
    """Deterministic XFunctionCode for a method name (CRC32 folded)."""
    crc = zlib.crc32(name.encode("utf-8"))
    return (crc ^ (crc >> 16)) % _METHOD_CODE_SPACE


def remote(fn: Callable) -> Callable:
    """Mark a :class:`RemoteObject` method as remotely callable."""
    fn.__i2o_remote__ = True  # type: ignore[attr-defined]
    return fn


class RemoteObject(Listener):
    """A device class whose ``@remote`` methods answer RMI requests.

    The reply payload is ``("ok", result)`` or ``("err", message)`` —
    exceptions cross the wire as data, never as silence.
    """

    def on_plugin(self) -> None:
        self._bind_remote_methods()

    def _bind_remote_methods(self) -> None:
        codes: dict[int, str] = {}
        for name in dir(type(self)):
            if name.startswith("_"):
                continue
            fn = getattr(type(self), name, None)
            if not callable(fn) or not getattr(fn, "__i2o_remote__", False):
                continue
            code = method_code(name)
            if code in codes:
                raise MarshalError(
                    f"method code collision: {name!r} vs {codes[code]!r}; "
                    "rename one method"
                )
            codes[code] = name
            self.bind(code, self._make_handler(name))
        #: exported for introspection (UtilParamsGet of "methods")
        self.parameters["methods"] = ",".join(sorted(codes.values()))

    def _make_handler(self, name: str) -> Callable[[Frame], None]:
        def handler(frame: Frame) -> None:
            if frame.is_reply:
                return
            try:
                args, kwargs = unmarshal(frame.payload)
                result = getattr(self, name)(*args, **kwargs)
                parts = marshal_parts(("ok", result))
            except Exception as exc:  # noqa: BLE001 - errors cross the wire
                parts = marshal_parts(("err", f"{type(exc).__name__}: {exc}"))
            self.reply_into(
                frame, parts_size(parts), lambda view: write_parts(parts, view)
            )

        handler.__name__ = f"rmi_{name}"
        return handler
