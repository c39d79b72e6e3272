"""The stub side: typed remote calls over frameSend.

:class:`StubDevice` is the caller-side device that correlates replies
to outstanding calls via the ``initiator_context`` echoed by every
reply (paper figure 5: "Address of buffer ... returned unchanged in
reply").  :class:`Stub` wraps one remote object's TiD with attribute
syntax: ``stub.add(2, 3)`` marshals, sends, and (synchronously or via
a :class:`CallFuture`) returns the unmarshalled result.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.request import Requester
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.tid import Tid
from repro.rmi.marshal import marshal_parts, parts_size, unmarshal, write_parts
from repro.rmi.skeleton import method_code


class RemoteCallError(I2OError):
    """The remote method raised, the call failed, or timed out."""


class CallFuture:
    """Completion handle for one outstanding remote call."""

    __slots__ = ("_done", "_value", "_error", "callbacks", "context")

    def __init__(self) -> None:
        self.context = 0  # set by StubDevice.invoke
        self._done = False
        self._value: Any = None
        self._error: str | None = None
        self.callbacks: list[Callable[["CallFuture"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise RemoteCallError("call has not completed")
        if self._error is not None:
            raise RemoteCallError(self._error)
        return self._value

    def _complete(self, value: Any = None, error: str | None = None) -> None:
        self._done = True
        self._value = value
        self._error = error
        for cb in self.callbacks:
            cb(self)

    def _on_reply(self, frame: Frame) -> None:
        if frame.is_failure:
            self._complete(error="remote rejected the call (failure reply)")
            return
        try:
            status, payload = unmarshal(frame.payload)
        except I2OError as exc:
            self._complete(error=f"unmarshal failed: {exc}")
            return
        if status == "ok":
            self._complete(value=payload)
        else:
            self._complete(error=str(payload))


class StubDevice(Requester):
    """Caller-side endpoint: issues calls, collects replies.

    :meth:`invoke` is an asynchronous
    :meth:`~repro.core.request.Requester.request` whose reply completes
    a :class:`CallFuture`; :meth:`wait` runs the one wait loop on it
    (DESIGN §5, "Request/reply correlation") — threaded programs can
    use futures with callbacks instead.
    """

    device_class = "rmi_stub"
    error_type = RemoteCallError

    def on_plugin(self) -> None:
        self.table.bind_default(self.handle_reply)

    # -- calls ---------------------------------------------------------------
    def invoke(
        self, target: Tid, method: str, *args: Any, **kwargs: Any
    ) -> CallFuture:
        """Fire a call; returns its future immediately."""
        future = CallFuture()
        # Marshal straight into the loaned frame: the chunk list is
        # written to pool memory without an intermediate join.
        parts = marshal_parts((list(args), kwargs))
        future.context = self.request(
            target,
            size=parts_size(parts),
            writer=lambda view: write_parts(parts, view),
            xfunction=method_code(method),
            on_reply=future._on_reply,
        )
        return future

    def wait(self, future: CallFuture) -> Any:
        """Pump until ``future`` completes; returns its result."""
        self.wait_until(lambda: future.done, context=future.context,
                        what="remote call")
        return future.result()

    def call(self, target: Tid, method: str, *args: Any, **kwargs: Any) -> Any:
        """Synchronous remote call."""
        return self.wait(self.invoke(target, method, *args, **kwargs))


class Stub:
    """Attribute-syntax façade: ``Stub(device, tid).method(args)``."""

    def __init__(self, device: StubDevice, target: Tid) -> None:
        self._device = device
        self._target = target

    def __getattr__(self, method: str) -> Callable[..., Any]:
        if method.startswith("_"):
            raise AttributeError(method)

        def call(*args: Any, **kwargs: Any) -> Any:
            return self._device.call(self._target, method, *args, **kwargs)

        call.__name__ = method
        return call
