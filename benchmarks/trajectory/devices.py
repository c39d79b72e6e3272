"""The benchmark's own device classes: ping, echo, flood source, sink.

Defined here, not imported from ``repro.bench``, so the benchmark keeps
measuring the same thing when that harness tree is simplified away.
Every device both drives traffic and checks it: a reply of the wrong
length, a failure reply, or a CRC mismatch (checked on 1 reply in 64 —
the check must not become the workload) is tallied in ``bad``.
"""

from __future__ import annotations

import zlib
from time import perf_counter_ns
from typing import Callable

from repro.core import Listener
from repro.i2o import Frame, Tid

XF_PING = 0x0001
XF_FLOOD = 0x0002

#: A payload is CRC-checked when ``count & CRC_EVERY_MASK == 0``.
CRC_EVERY_MASK = 63


class EchoDevice(Listener):
    """Replies to each request with exactly the same content."""

    device_class = "trajectory_echo"

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
    """Closed-loop client with one round trip outstanding.

    ``start(n)`` sends the first request; each reply is timed, checked
    and answered with the next request until ``n`` are done or the
    driver sets ``stop``, then ``remaining`` drops to 0 and
    ``on_finished`` (if set) is called — the threaded workload blocks
    on it, the stepped one watches ``remaining``.
    """

    device_class = "trajectory_ping"

    def __init__(self, name: str = "ping") -> None:
        super().__init__(name)
        self.peer: Tid = 0
        self.payload = b""
        self.crc = 0
        self.remaining = 0
        self.stop = False
        self.done = 0
        self.bad = 0
        self.rtts_ns: list[int] = []
        self.on_finished: Callable[[], None] | None = None
        self._t0 = 0

    def configure(self, peer: Tid, payload: bytes) -> None:
        self.peer = peer
        self.payload = payload
        self.crc = zlib.crc32(payload)

    def on_plugin(self) -> None:
        self.bind(XF_PING, self._on_reply)

    def start(self, rounds: int) -> None:
        self.remaining = rounds
        self._kick()

    def _kick(self) -> None:
        self._t0 = perf_counter_ns()
        self.send(self.peer, self.payload, xfunction=XF_PING)

    def _on_reply(self, frame: Frame) -> None:
        now = perf_counter_ns()
        if not frame.is_reply:
            return
        self.rtts_ns.append(now - self._t0)
        if frame.is_failure or frame.payload_size != len(self.payload):
            self.bad += 1
        elif (
            not self.done & CRC_EVERY_MASK
            and zlib.crc32(frame.payload) != self.crc
        ):
            self.bad += 1
        self.done += 1
        self.remaining -= 1
        if self.remaining > 0 and not self.stop:
            self._kick()
            return
        self.remaining = 0
        if self.on_finished is not None:
            self.on_finished()


class Tally:
    """Delivery count shared by the sinks of one flood, so the driver
    reads one integer per pump pass instead of summing 16."""

    __slots__ = ("delivered",)

    def __init__(self) -> None:
        self.delivered = 0


class SinkDevice(Listener):
    """Counts and checks what it receives; samples delivery latency.

    The source stamps its send time into ``transaction_context`` (a
    header field, so stamping costs no payload work); the sink reads
    it on 1 message in 16.
    """

    device_class = "trajectory_sink"

    def __init__(
        self, name: str, tally: Tally, latencies_ns: list[int],
        size: int, crc: int,
    ) -> None:
        super().__init__(name)
        self.tally = tally
        #: shared by the sinks of one flood, in delivery order
        self.latencies_ns = latencies_ns
        self.size = size
        self.crc = crc
        self.received = 0
        self.bad = 0

    def on_plugin(self) -> None:
        self.bind(XF_FLOOD, self._on_message)

    def _on_message(self, frame: Frame) -> None:
        n = self.received
        self.received = n + 1
        self.tally.delivered += 1
        if not n & 15:
            self.latencies_ns.append(
                perf_counter_ns() - frame.transaction_context
            )
        if frame.payload_size != self.size:
            self.bad += 1
        elif not n & CRC_EVERY_MASK and zlib.crc32(frame.payload) != self.crc:
            self.bad += 1


class FloodSource(Listener):
    """Sends one-way messages to a ring of sinks, cycling priorities."""

    device_class = "trajectory_source"

    #: three of the seven I2O levels, around the default (3)
    PRIORITIES = (2, 3, 4)

    def __init__(self, name: str = "source") -> None:
        super().__init__(name)
        self.sinks: list[Tid] = []
        self.payload = b""
        self.sent = 0

    def configure(self, sinks: list[Tid], payload: bytes) -> None:
        self.sinks = sinks
        self.payload = payload

    def send_next(self) -> None:
        k = self.sent
        self.sent = k + 1
        self.send(
            self.sinks[k % len(self.sinks)],
            self.payload,
            xfunction=XF_FLOOD,
            priority=self.PRIORITIES[k % 3],
            transaction_context=perf_counter_ns(),
        )
