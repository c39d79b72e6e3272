"""The five workloads: build a cluster, drive it closed-loop, verify it.

Each workload is driven from outside through public functions of
``repro`` only (the README lists them).  Four are single-threaded — the
driver itself steps the executives — and ``tcp_pingpong`` runs two
executive threads in strict ping-pong, so on the 2-core host at most
one workload thread is runnable at a time.

A workload never raises for a *wrong result*: every shortfall a check
finds is returned by :meth:`Workload.finish` as a count of failed
operations with a one-line reason.  :class:`Stalled` is the one
exception, for a loop that stopped making progress; the worker turns
it into failed operations too.
"""

from __future__ import annotations

import random
import threading
import zlib
from collections import deque
from pathlib import Path
from time import perf_counter_ns, process_time_ns
from typing import Any, Callable, ClassVar

from repro.config.bootstrap import bootstrap
from repro.core import Executive
from repro.core.reliable import ReliableEndpoint
from repro.daq.events import fragment_size
from repro.dataflow.examples import event_builder_spec
from repro.durable import SegmentStore
from repro.mem import PoolError
from repro.transports import (
    LoopbackNetwork,
    LoopbackTransport,
    PeerTransportAgent,
    QueuePair,
    QueueTransport,
    TcpTransport,
)
from repro.transports.wire import WIRE_HEADER_SIZE

from .devices import (
    CRC_EVERY_MASK,
    EchoDevice,
    FloodSource,
    PingDevice,
    SinkDevice,
    Tally,
)
from .trace import NullTracer

#: ``run(UNBOUNDED, deadline)`` issues operations until the deadline.
UNBOUNDED = 1 << 60

#: Consecutive pump passes with no executive doing work before a
#: stepped loop is declared stuck (every workload here is synchronous
#: and in-process, so one idle pass with work outstanding is already
#: suspicious; the margin only has to outlast a timer tick).
STALL_PASSES = 10_000

#: Seconds the threaded workload waits for its last reply.
STALL_TIMEOUT_S = 60.0


class Stalled(Exception):
    """A closed loop stopped completing operations."""


class SpeedProbe:
    """A fixed piece of pure-Python work, timed: how fast this core is
    running *right now*.

    It walks a list of 50 000 boxed integers (about 1.3 ms on the
    sizing host, 1 % of a slice).  When the host gives the core away
    the five workloads slow down by 1.4-1.5x and this walk by 1.4x —
    closer than an arithmetic loop, which only slows by 1.2x.
    """

    def __init__(self) -> None:
        self._heap = list(range(1000, 51_000))

    def __call__(self) -> int:
        t0 = perf_counter_ns()
        total = 0
        for value in self._heap:
            total += value
        return perf_counter_ns() - t0


class SegmentClock:
    """The timed segment's deadline, cut into slices with a speed
    probe between them.

    The host this was sized on runs in two states — a core to itself,
    or sharing it — that alternate every few seconds, sometimes stay
    for minutes, and differ by half again in speed.  So a segment is
    not timed as one block: whenever ``next_ns`` has passed the
    workload's loop calls :meth:`tick`, which closes the slice (time,
    operations completed, latency samples so far, process CPU time),
    runs the probe, and opens the next slice.  The result is built
    from the slices and the probe readings (see ``cli.summarise``).
    Slices end at the deadline, so the final drain of the window is in
    none of them.
    """

    def __init__(
        self, seconds: float, slice_ns: int,
        progress: Callable[[], tuple[int, int]],
    ) -> None:
        self.slice_ns = slice_ns
        self.progress = progress
        self.probe = SpeedProbe()
        self.probe()  # warm: the first walk pages the list in
        self.probes_ns = [self.probe()]
        self.ends: list[tuple[int, int, int, int]] = []
        self.start_ns = perf_counter_ns()
        self.starts = [(self.start_ns, *progress(), process_time_ns())]
        self.end_ns = self.start_ns + int(seconds * 1e9)
        self.next_ns = self.start_ns + slice_ns

    def tick(self, now_ns: int) -> bool:
        """Close a slice; True once the deadline has passed."""
        self.ends.append((now_ns, *self.progress(), process_time_ns()))
        self.probes_ns.append(self.probe())
        start_ns = perf_counter_ns()
        self.starts.append((start_ns, *self.progress(), process_time_ns()))
        self.next_ns = start_ns + self.slice_ns
        return now_ns >= self.end_ns


class Workload:
    """One closed-loop traffic pattern over a freshly built cluster."""

    name: ClassVar[str]
    #: how load is offered, for the provenance record
    loop: ClassVar[str]
    #: operations outstanding at once
    window: ClassVar[int]
    #: executive threads the workload starts (0 = the driver steps)
    threads: ClassVar[int] = 0
    payload_size: ClassVar[int]
    #: fixed-size warm-up; part of ``setup_s``, so lazy set-up shows there
    warmup_ops: ClassVar[int]

    def __init__(
        self, seed: int, tracer: NullTracer, scratch: Path
    ) -> None:
        self.seed = seed
        self.tracer = tracer
        self.scratch = scratch
        self.payload = random.Random(seed).randbytes(self.payload_size)
        self.payload_crc = zlib.crc32(self.payload)
        self.executives: list[Executive] = []
        self.latencies_ns: list[int] = []

    # -- the contract --------------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def run(self, max_ops: int, clock: SegmentClock | None = None) -> int:
        """Issue up to ``max_ops`` operations, stopping early once
        ``clock`` reaches its deadline; drain; return how many were
        issued."""
        raise NotImplementedError

    def progress(self) -> tuple[int, int]:
        """(operations completed, latency samples taken) so far."""
        raise NotImplementedError

    def finish(self) -> list[tuple[int, str]]:
        """Stop, release and verify; ``(failed operations, reason)``
        for every check that did not hold."""
        raise NotImplementedError

    def layer_counts(self, delta: dict[str, float], ops: int) -> dict[str, float]:
        """Per-layer counters of this workload, from counter deltas
        over the measured segment."""
        return {}

    def roles(self) -> dict[str, str]:
        """Node id -> role name, where the traced busy shares are
        reported per role."""
        return {}

    @classmethod
    def shape(cls) -> dict[str, Any]:
        """How load is offered — part of every result's provenance."""
        return {
            "loop": cls.loop, "window": cls.window, "threads": cls.threads,
            "payload_bytes": cls.payload_size, "warmup_ops": cls.warmup_ops,
        }

    # -- shared pieces -------------------------------------------------------
    def reset_samples(self) -> None:
        self.latencies_ns.clear()

    def _steps(self) -> list[Callable[[], bool]]:
        wrap = self.tracer.wrap
        return [wrap(f"step@{exe.node}", exe.step) for exe in self.executives]

    def _transports(self) -> list[Any]:
        return [
            pt for exe in self.executives if exe.pta is not None
            for pt in exe.pta.transports()
        ]

    def counters(self) -> dict[str, float]:
        """Public counters of every executive, pool and transport."""
        exes = self.executives
        pts = self._transports()
        return {
            "pool_allocs": sum(e.pool.stats.allocs for e in exes),
            "pool_failed_allocs": sum(e.pool.stats.failed_allocs for e in exes),
            "pool_high_watermark": max(
                e.pool.stats.high_watermark for e in exes
            ),
            "dispatched": sum(e.dispatched for e in exes),
            "dropped": sum(e.dropped for e in exes),
            "handler_errors": sum(e.handler_errors for e in exes),
            "frames_sent": sum(pt.frames_sent for pt in pts),
            "frames_received": sum(pt.frames_received for pt in pts),
            "bytes_sent": sum(pt.bytes_sent for pt in pts),
            "tx_copies": sum(pt.tx_copies for pt in pts),
            "rx_copies": sum(pt.rx_copies for pt in pts),
        }

    def _check_executives(self) -> list[tuple[int, str]]:
        """Pool conservation and no dead letters, on every executive."""
        problems = []
        for exe in self.executives:
            try:
                exe.pool.check_conservation()
            except PoolError as exc:
                problems.append((1, f"node {exe.node}: {exc}"))
            if exe.pool.in_flight:
                problems.append((
                    exe.pool.in_flight,
                    f"node {exe.node}: {exe.pool.in_flight} blocks in flight",
                ))
            if exe.dropped or exe.handler_errors:
                problems.append((
                    exe.dropped + exe.handler_errors,
                    f"node {exe.node}: {exe.dropped} dropped, "
                    f"{exe.handler_errors} handler errors",
                ))
        return problems

    def _pump_or_stall(self, worked: bool, idle: int) -> int:
        if worked:
            return 0
        if idle >= STALL_PASSES:
            raise Stalled(f"{self.name}: no progress in {idle} passes")
        return idle + 1


def executive_pair(transport: str) -> tuple[Executive, Executive]:
    """Nodes 0 and 1, joined by one ``"queued"`` or ``"loopback"`` peer
    transport each."""
    exe_a, exe_b = Executive(node=0), Executive(node=1)
    if transport == "queued":
        pair = QueuePair(0, 1)
        pts = [QueueTransport(pair, name="q"), QueueTransport(pair, name="q")]
    else:
        network = LoopbackNetwork()
        pts = [LoopbackTransport(network), LoopbackTransport(network)]
    for exe, pt in zip((exe_a, exe_b), pts):
        PeerTransportAgent.attach(exe).register(pt, default=True)
    return exe_a, exe_b


def _expect(actual: int, expected: int, what: str) -> list[tuple[int, str]]:
    if actual == expected:
        return []
    return [(abs(expected - actual), f"{what}: {actual}, expected {expected}")]


class PingPongQueued(Workload):
    """The paper's Figure-6 setup at the smallest useful size.

    Queue depth is always 1, so this isolates the constant cost per
    message: alloc, header build, route, one scheduler push/pop,
    lookup, upcall, free.
    """

    name = "pingpong_queued"
    loop = "closed, driver-stepped"
    window = 1
    payload_size = 64
    warmup_ops = 500

    def __init__(
        self, seed: int, tracer: NullTracer, scratch: Path,
        echo_factory: Callable[[], EchoDevice] = EchoDevice,
    ) -> None:
        super().__init__(seed, tracer, scratch)
        self.echo_factory = echo_factory

    def build(self) -> None:
        with self.tracer.span("build"):
            exe_a, exe_b = executive_pair("queued")
            self.echo = self.echo_factory()
            echo_tid = exe_b.install(self.echo)
            self.ping = PingDevice()
            exe_a.install(self.ping)
            self.ping.configure(exe_a.create_proxy(1, echo_tid), self.payload)
        self.executives = [exe_a, exe_b]
        self.latencies_ns = self.ping.rtts_ns
        self._step_a, self._step_b = self._steps()
        self._start = self.tracer.wrap("ping.start", self.ping.start)

    def run(self, max_ops: int, clock: SegmentClock | None = None) -> int:
        ping, tracer = self.ping, self.tracer
        step_a, step_b = self._step_a, self._step_b
        before = ping.done
        ping.stop = False
        self._start(max_ops)
        idle = 0
        while ping.remaining > 0:
            tracer.op_id = ping.done
            idle = self._pump_or_stall(step_a() | step_b(), idle)
            if clock is not None:
                now = perf_counter_ns()
                if now >= clock.next_ns and clock.tick(now):
                    ping.stop = True
        return ping.done - before

    def progress(self) -> tuple[int, int]:
        return self.ping.done, len(self.ping.rtts_ns)

    def finish(self) -> list[tuple[int, str]]:
        problems = self._check_executives()
        if self.ping.bad:
            problems.append((self.ping.bad, f"{self.ping.bad} bad echoes"))
        problems += _expect(self.echo.echoed, self.ping.done, "echoed")
        return problems


class FloodFanIn(Workload):
    """One source floods 16 sinks at 3 priorities, 256 outstanding.

    The same scheduler and executive code as ping-pong, used the other
    way: deep multi-device multi-priority FIFOs, 16 dispatches per
    ``step()``.
    """

    name = "flood_fanin"
    loop = "closed, driver-stepped, windowed"
    window = 256
    payload_size = 64
    sinks = 16
    #: a multiple of sinks x priorities, so every sink's share is exact
    warmup_ops = 2_400

    def build(self) -> None:
        with self.tracer.span("build"):
            exe_a, exe_b = executive_pair("loopback")
            self.tally = Tally()
            self.sink_devices = [
                SinkDevice(f"sink{i}", self.tally, self.latencies_ns,
                           self.payload_size, self.payload_crc)
                for i in range(self.sinks)
            ]
            self.source = FloodSource()
            exe_a.install(self.source)
            self.source.configure(
                [exe_a.create_proxy(1, exe_b.install(sink))
                 for sink in self.sink_devices],
                self.payload,
            )
        self.executives = [exe_a, exe_b]
        self._step_a, self._step_b = self._steps()
        self._send = self.tracer.wrap("source.send_next", self.source.send_next)

    def run(self, max_ops: int, clock: SegmentClock | None = None) -> int:
        source, tally, tracer = self.source, self.tally, self.tracer
        step_a, step_b, send = self._step_a, self._step_b, self._send
        window = self.window
        first = source.sent
        target = first + max_ops
        idle = 0
        while True:
            delivered = tally.delivered
            if clock is not None:
                now = perf_counter_ns()
                if now >= clock.next_ns and clock.tick(now):
                    # Round the total up to a whole turn of the sink ring.
                    turn = self.sinks * len(source.PRIORITIES)
                    target = min(target, -(-source.sent // turn) * turn)
                    clock = None
            for _ in range(
                min(target - source.sent, window - (source.sent - delivered))
            ):
                send()
            if delivered == target:
                break
            tracer.op_id = delivered
            idle = self._pump_or_stall(step_a() | step_b(), idle)
        return source.sent - first

    def progress(self) -> tuple[int, int]:
        return self.tally.delivered, len(self.latencies_ns)

    def finish(self) -> list[tuple[int, str]]:
        problems = self._check_executives()
        share = self.source.sent // self.sinks
        for sink in self.sink_devices:
            problems += _expect(sink.received, share, f"{sink.name} received")
            if sink.bad:
                problems.append((sink.bad, f"{sink.name}: bad payloads"))
        return problems

    def layer_counts(self, delta: dict[str, float], ops: int) -> dict[str, float]:
        return {"transports.loopback.copies_per_frame": _copies_per_frame(delta)}


def _copies_per_frame(delta: dict[str, float]) -> float:
    return (delta["tx_copies"] + delta["rx_copies"]) / max(
        1, delta["frames_sent"]
    )


class EventBuilder4x4(Workload):
    """The paper's motivating n x m crossing traffic, declaratively built.

    Nine executives of which most are idle on any step, dataflow
    credits, derived routes.  The window is 32 events because an
    unthrottled ``fire_burst(n > 192)`` silently parks or sheds (see
    the README).
    """

    name = "evb_4x4"
    loop = "closed, driver-pumped, windowed"
    window = 32
    payload_size = 8  # the trigger; fragments are sized by event id
    n_ru = 4
    n_bu = 4
    mean_fragment = 2048
    warmup_ops = 64

    def build(self) -> None:
        build = self.tracer.wrap("bootstrap", bootstrap)
        self.cluster = build(
            event_builder_spec(
                self.n_ru, self.n_bu, transport="loopback",
                mean_fragment=self.mean_fragment,
            )
        )
        self.executives = list(self.cluster.executives.values())
        self.trigger = self.cluster.device("trigger")
        self.evm = self.cluster.device("evm")
        self.rus = [self.cluster.device(f"ru{i}") for i in range(self.n_ru)]
        self.bus = [self.cluster.device(f"bu{i}") for i in range(self.n_bu)]
        # The event-id base is the workload's input: it fixes every
        # fragment size through ``fragment_size``.
        self.first_event_id = (self.seed * 1_000_003) % (1 << 48) + 1
        self.trigger.next_event_id = self.first_event_id
        # Completion latency is read off ``completed_ids``, which the
        # EVM caps at ``keep_completed`` entries by default.
        self.evm.keep_completed = UNBOUNDED
        self._seen = 0
        self._fire_t: dict[int, int] = {}
        self._pump = self._steps()
        self._fire = self.tracer.wrap("trigger.fire", self.trigger.fire)

    def roles(self) -> dict[str, str]:
        roles = {"0": "evm"}
        for i in range(self.n_ru):
            roles[str(1 + i)] = "ru"
        for i in range(self.n_bu):
            roles[str(1 + self.n_ru + i)] = "bu"
        return roles

    def run(self, max_ops: int, clock: SegmentClock | None = None) -> int:
        trigger, evm, tracer = self.trigger, self.evm, self.tracer
        fire, pump, fire_t = self._fire, self._pump, self._fire_t
        latencies, window = self.latencies_ns, self.window
        first = trigger.fired
        target = first + max_ops
        idle = 0
        while True:
            done = evm.completed
            if done > self._seen:
                now = perf_counter_ns()
                for event_id in evm.completed_ids[self._seen:done]:
                    latencies.append(now - fire_t.pop(event_id))
                self._seen = done
            if clock is not None:
                now = perf_counter_ns()
                if now >= clock.next_ns and clock.tick(now):
                    target = trigger.fired
                    clock = None
            while trigger.fired < target and trigger.fired - done < window:
                t0 = perf_counter_ns()
                fire_t[fire()] = t0
            tracer.op_id = done
            worked = False
            for step in pump:
                worked |= step()
            if done == target:
                # Built, but the CLEARs of the last events are still
                # crossing: an event is over when its buffers are free.
                if not worked:
                    break
            else:
                idle = self._pump_or_stall(worked, idle)
        return trigger.fired - first

    def progress(self) -> tuple[int, int]:
        return self.evm.completed, len(self.latencies_ns)

    def _reference_bytes(self) -> int:
        """What the builders must have assembled, computed independently
        from the event ids alone."""
        return sum(
            fragment_size(event_id, ru, mean=self.mean_fragment)
            for event_id in range(
                self.first_event_id, self.first_event_id + self.trigger.fired
            )
            for ru in range(self.n_ru)
        )

    def finish(self) -> list[tuple[int, str]]:
        fired = self.trigger.fired
        problems = self._check_executives()
        problems += _expect(self.evm.completed, fired, "evm.completed")
        problems += _expect(sum(bu.built for bu in self.bus), fired, "built")
        problems += _expect(sum(bu.corrupt for bu in self.bus), 0, "corrupt")
        problems += _expect(len(self.evm.lost_events), 0, "lost events")
        problems += _expect(
            sum(ru.buffered_events for ru in self.rus), 0, "uncleared buffers"
        )
        problems += _expect(self._shed(), 0, "shed emissions")
        built = sum(bu.bytes_built for bu in self.bus)
        if built != self._reference_bytes():
            problems.append(
                (1, f"assembled {built} B, reference {self._reference_bytes()} B")
            )
        return problems

    def _shed(self) -> int:
        ledger = self.cluster.dataflow_ledger
        return sum(ledger.shed(exe.node) for exe in self.executives)

    def counters(self) -> dict[str, float]:
        values = super().counters()
        values["parked"] = sum(
            exe.dataflow_outbox.parked_total for exe in self.executives
        )
        values["shed"] = self._shed()
        values["bytes_built"] = sum(bu.bytes_built for bu in self.bus)
        return values

    def layer_counts(self, delta: dict[str, float], ops: int) -> dict[str, float]:
        return {
            "transports.loopback.copies_per_frame": _copies_per_frame(delta),
            "dataflow.routing.parked": delta["parked"],
            "dataflow.routing.shed": delta["shed"],
            "daq.wire_msgs_per_event": delta["frames_sent"] / ops,
            "daq.payload_bytes_per_event": delta["bytes_built"] / ops,
        }


class TcpPingPong(Workload):
    """Ping-pong over real sockets on the host loopback interface.

    The only workload that crosses ``transports.wire`` framing,
    ``sendmsg``/``recv_into``, the rx thread and the ``wait_for_work``
    wake-up.  127.0.0.1 is not a real link: the numbers are the
    software path's, not a network's.
    """

    name = "tcp_pingpong"
    loop = "closed, two executive threads, driver blocks on an Event"
    window = 1
    threads = 2
    payload_size = 4096
    warmup_ops = 200

    def build(self) -> None:
        with self.tracer.span("build"):
            exe_a, exe_b = Executive(node=0), Executive(node=1)
            pt_a, pt_b = TcpTransport(name="tcp"), TcpTransport(name="tcp")
            for exe, pt in ((exe_a, pt_a), (exe_b, pt_b)):
                PeerTransportAgent.attach(exe).register(pt, default=True)
            # Only the initiator needs an address: the echo side
            # replies over the connection it accepted.
            pt_a.add_peer(1, "127.0.0.1", pt_b.bound_port)
            self.echo = EchoDevice()
            echo_tid = exe_b.install(self.echo)
            self.ping = PingDevice()
            exe_a.install(self.ping)
            self.ping.configure(exe_a.create_proxy(1, echo_tid), self.payload)
            self._done = threading.Event()
            self.ping.on_finished = self._done.set
        self.executives = [exe_a, exe_b]
        self.latencies_ns = self.ping.rtts_ns
        self._start = self.tracer.wrap("ping.start", self.ping.start)
        for exe in self.executives:
            self.tracer.wrap(f"start@{exe.node}", exe.start)()

    def run(self, max_ops: int, clock: SegmentClock | None = None) -> int:
        ping = self.ping
        before = ping.done
        ping.stop = False
        self._done.clear()
        self._start(max_ops)
        while clock is not None:
            # The driver sleeps through each slice and reads the ping
            # device's counters when it wakes.
            self._done.wait(max(0.0, (clock.next_ns - perf_counter_ns()) / 1e9))
            if clock.tick(perf_counter_ns()):
                ping.stop = True
                break
        if not self._done.wait(STALL_TIMEOUT_S):
            raise Stalled(f"{self.name}: no reply in {STALL_TIMEOUT_S} s")
        return ping.done - before

    def progress(self) -> tuple[int, int]:
        return self.ping.done, len(self.ping.rtts_ns)

    def finish(self) -> list[tuple[int, str]]:
        for exe in self.executives:
            self.tracer.wrap(f"stop@{exe.node}", exe.stop)()
        # ``TcpTransport.shutdown`` is deliberately not called: its
        # accept thread does not wake when the listening socket closes,
        # so each call sits out a 2 s join timeout (see the README).
        # The worker exits right after, which closes the sockets.
        problems = self._check_executives()
        if self.ping.bad:
            problems.append((self.ping.bad, f"{self.ping.bad} bad echoes"))
        problems += _expect(self.echo.echoed, self.ping.done, "echoed")
        return problems

    def layer_counts(self, delta: dict[str, float], ops: int) -> dict[str, float]:
        sent = max(1, delta["frames_sent"])
        return {
            "transports.tcp.tx_copies_per_frame": delta["tx_copies"] / sent,
            "transports.tcp.rx_copies_per_frame":
                delta["rx_copies"] / max(1, delta["frames_received"]),
            "transports.tcp.wire_bytes_per_op":
                (delta["bytes_sent"] + WIRE_HEADER_SIZE * sent) / ops,
        }


class DurableStream(Workload):
    """A journaled reliable stream, one way with acks, 16 outstanding.

    Writes beside reads: journal append, ack retire and compaction,
    one timer armed and cancelled per message, CRCs.  ``fsync`` is off
    because disk behaviour is not measurable on this sandbox; the
    journal file lives under the benchmark's own ``out/`` directory.
    """

    name = "durable_stream"
    loop = "closed, driver-stepped, windowed"
    window = 16
    payload_size = 1024
    warmup_ops = 400
    #: long enough that only a lost message, never a host hiccup,
    #: retransmits (retransmissions must be 0)
    retransmit_ns = 1_000_000_000

    def build(self) -> None:
        with self.tracer.span("build"):
            exe_a, exe_b = executive_pair("loopback")
            self.scratch.mkdir(parents=True, exist_ok=True)
            self.journal_path = self.scratch / f"durable_{self.seed}.journal"
            self.journal_path.unlink(missing_ok=True)
            self.store = SegmentStore(
                self.journal_path, flush_every=1, fsync=False
            )
            self.tx = ReliableEndpoint(
                "tx", retransmit_ns=self.retransmit_ns, journal=self.store
            )
            self.rx = ReliableEndpoint("rx", retransmit_ns=self.retransmit_ns)
            self.rx.consumer = self._consume
            exe_a.install(self.tx)
            self.target = exe_a.create_proxy(1, exe_b.install(self.rx))
        self.executives = [exe_a, exe_b]
        self.sent = 0
        self.acked = 0
        self.bad = 0
        self._send_t: deque[int] = deque()
        self._step_a, self._step_b = self._steps()
        self._send = self.tracer.wrap(
            "tx.send_reliable", self.tx.send_reliable
        )

    def _consume(self, source: int, payload: bytes) -> None:
        if len(payload) != self.payload_size or (
            not self.rx.delivered & CRC_EVERY_MASK
            and zlib.crc32(payload) != self.payload_crc
        ):
            self.bad += 1

    def run(self, max_ops: int, clock: SegmentClock | None = None) -> int:
        tx, tracer, send_t = self.tx, self.tracer, self._send_t
        step_a, step_b, send = self._step_a, self._step_b, self._send
        target, payload, window = self.target, self.payload, self.window
        latencies = self.latencies_ns
        first = self.sent
        limit = first + max_ops
        idle = 0
        while True:
            acked = self.sent - tx.in_flight
            if acked > self.acked:
                # Over loopback acks return in send order (and any
                # retransmission fails the run), so FIFO matching of
                # send times to acks is exact.
                now = perf_counter_ns()
                for _ in range(acked - self.acked):
                    latencies.append(now - send_t.popleft())
                self.acked = acked
            if clock is not None:
                now = perf_counter_ns()
                if now >= clock.next_ns and clock.tick(now):
                    limit = self.sent
                    clock = None
            while self.sent < limit and self.sent - acked < window:
                send_t.append(perf_counter_ns())
                send(target, payload)
                self.sent += 1
            if acked == limit:
                break
            tracer.op_id = acked
            idle = self._pump_or_stall(step_a() | step_b(), idle)
        return self.sent - first

    def progress(self) -> tuple[int, int]:
        return self.acked, len(self.latencies_ns)

    def finish(self) -> list[tuple[int, str]]:
        problems = self._check_executives()
        problems += _expect(self.rx.delivered, self.sent, "delivered")
        problems += _expect(self.store.depth, 0, "journal depth after last ack")
        for what, count in (
            ("failures", self.tx.failures),
            ("retransmissions", self.tx.retransmissions),
            ("duplicates suppressed", self.rx.duplicates_suppressed),
            ("corrupt discarded",
             self.tx.corrupt_discarded + self.rx.corrupt_discarded),
            ("bad payloads", self.bad),
        ):
            problems += _expect(count, 0, what)
        self.tracer.wrap("journal.close", self.store.close)()
        self.journal_path.unlink(missing_ok=True)
        return problems

    def counters(self) -> dict[str, float]:
        values = super().counters()
        values["retransmissions"] = self.tx.retransmissions
        values["duplicates_suppressed"] = self.rx.duplicates_suppressed
        values["compactions"] = self.store.compactions
        values["journal_bytes"] = _bytes_written()
        return values

    def layer_counts(self, delta: dict[str, float], ops: int) -> dict[str, float]:
        return {
            "transports.loopback.copies_per_frame": _copies_per_frame(delta),
            "core.reliable.retransmissions": delta["retransmissions"],
            "core.reliable.duplicates_suppressed":
                delta["duplicates_suppressed"],
            "durable.segments.compactions": delta["compactions"],
            "durable.segments.bytes_per_op": delta["journal_bytes"] / ops,
        }


def _bytes_written() -> int:
    """Bytes this process has passed to ``write`` so far (Linux
    ``/proc/self/io``): the journal is the workload's only writer, so
    the delta over a segment is what appends *and* compaction rewrites
    cost, which no counter of ``SegmentStore`` exposes."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        PingPongQueued, FloodFanIn, EventBuilder4x4, TcpPingPong,
        DurableStream,
    )
}
