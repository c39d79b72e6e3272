"""The benchmark device classes: the blackbox ping/echo pair and the
counting sink the drain loads (X2, overhead) dispatch into.

Paper §5: *"we built a simple private device class that is instantiated
on one node and continuously floods a remote instance of this class
with messages.  The second instance responds by replying to each
received message with exactly the same content."*
"""

from __future__ import annotations

from repro.core.device import Listener
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.tid import Tid

XF_PING = 0x0001


class EchoDevice(Listener):
    """The responder: replies to each message with identical content."""

    device_class = "bench_echo"

    def __init__(self, name: str = "echo") -> None:
        super().__init__(name)
        self.echoed = 0

    def on_plugin(self) -> None:
        self.bind(XF_PING, self._on_ping)

    def _on_ping(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self.reply(frame, frame.payload)
        self.echoed += 1


class PingDevice(Listener):
    """The flooder: round-trips payloads and records per-round RTTs."""

    device_class = "bench_ping"

    def __init__(self, name: str = "ping") -> None:
        super().__init__(name)
        self.peer: Tid | None = None
        self.payload = b"\xA5"
        self.rounds = 0
        self.remaining = 0
        self.rtts_ns: list[int] = []
        self._t0 = 0

    def configure(self, peer: Tid, payload_size: int, rounds: int) -> None:
        self.peer = peer
        self.payload = bytes(max(1, payload_size))
        self.rounds = rounds
        self.remaining = rounds

    def on_plugin(self) -> None:
        self.bind(XF_PING, self._on_reply)

    def kick(self) -> None:
        if self.peer is None:
            raise I2OError("ping device not configured")
        self._t0 = self._require_live().clock.now_ns()
        self.send(self.peer, self.payload, xfunction=XF_PING)

    def _on_reply(self, frame: Frame) -> None:
        if not frame.is_reply:
            # Symmetric setup: a ping device can also echo.
            self.reply(frame, frame.payload)
            return
        if frame.payload_size != len(self.payload):
            raise I2OError(
                f"echo truncated: sent {len(self.payload)}, "
                f"got {frame.payload_size}"
            )
        self.rtts_ns.append(self._require_live().clock.now_ns() - self._t0)
        self.remaining -= 1
        if self.remaining > 0:
            self.kick()

    def export_counters(self) -> dict[str, object]:
        return {"rounds_done": len(self.rtts_ns), "remaining": self.remaining}


class CountingSink(Listener):
    """Counts deliveries; never replies."""

    device_class = "bench_sink"

    def __init__(self, name: str = "sink") -> None:
        super().__init__(name)
        self.hits = 0

    def on_plugin(self) -> None:
        self.bind(XF_PING, self._on_hit)
        # Register many extra handlers so table size is also exercised.
        for xfunc in range(0x0100, 0x0110):
            self.bind(xfunc, self._on_hit)

    def _on_hit(self, frame: Frame) -> None:
        self.hits += 1
