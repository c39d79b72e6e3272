"""Per-layer timings: the paper's Table 1 applied to this code base.

Every ``*_ns`` metric is the median, over batches, of the mean time of
one call of a *public* function of ``repro``, with the message shape of
the workload that function feeds (64 B for the ping-pong and flood
paths, 4 KiB for TCP framing, 1 KiB for the durable stream, the 8 B
event id for dataflow emits).  Nothing inside ``src/`` is instrumented:
a stage is timed by calling it from here, with the work needed to set
the call up and to undo it kept outside the timed region.

The timing loop's own cost (one clock read per chunk, one no-op
closure call per iteration) is calibrated first and subtracted.
"""

from __future__ import annotations

import random
import statistics
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterable

from repro.config.bootstrap import bootstrap
from repro.core import Executive, PriorityScheduler
from repro.core.reliable import ReliableEndpoint
from repro.daq.protocol import MT_TRIGGER
from repro.dataflow.examples import event_builder_spec
from repro.durable import REC_SEND, Record, SegmentStore, encode_record
from repro.i2o import HEADER_SIZE, Frame
from repro.mem import BufferPool
from repro.transports import (
    LoopbackNetwork,
    LoopbackTransport,
    PeerTransportAgent,
    decode_wire,
    encode_wire,
    encode_wire_parts,
)

from .devices import XF_FLOOD, XF_PING, EchoDevice, FloodSource, SinkDevice, Tally
from .trace import NullTracer
from .workloads import PingPongQueued, executive_pair

Op = Callable[[Any], object]


def _require(condition: bool, what: str) -> None:
    """A timing of work that did not happen is worse than no timing."""
    if not condition:
        raise RuntimeError(f"micro-benchmark self-check failed: {what}")


class Bench:
    """Chunked timing: ``batches`` batches of ``calls`` calls each."""

    def __init__(self, calls: int, batches: int) -> None:
        self.calls = calls
        self.batches = batches
        self.clock_ns = 0.0
        self.loop_ns = 0.0
        # Calibrate on an empty operation: first the clock pair alone
        # (chunks of one call), then the per-iteration loop cost.
        self.clock_ns = self.measure(lambda _: None, chunk=1)
        self.loop_ns = self.measure(lambda _: None)
        self.clock_ns -= self.loop_ns

    def measure(
        self,
        op: Op,
        *,
        chunk: int | None = None,
        prepare: Callable[[int], Iterable[Any]] | None = None,
        cleanup: Callable[[], object] | None = None,
        calls: int | None = None,
    ) -> float:
        """Nanoseconds per ``op(item)``.

        Calls are timed ``chunk`` at a time; ``prepare(n)`` yields the
        chunk's items and ``cleanup()`` undoes its effects, both
        untimed.  The first batch warms caches and pools and is
        discarded.
        """
        calls = self.calls if calls is None else calls
        chunk = calls if chunk is None else min(chunk, calls)
        per_call = []
        for _ in range(self.batches + 1):
            total = 0.0
            done = 0
            while done < calls:
                n = min(chunk, calls - done)
                items = prepare(n) if prepare is not None else range(n)
                t0 = perf_counter_ns()
                for item in items:
                    op(item)
                total += perf_counter_ns() - t0 - self.clock_ns
                if cleanup is not None:
                    cleanup()
                done += n
            per_call.append(total / calls - self.loop_ns)
        return statistics.median(per_call[1:])


def _source_and_sink(
    exe_a: Executive, exe_b: Executive, size: int
) -> tuple[FloodSource, SinkDevice, int]:
    """A source on ``exe_a``, a sink on ``exe_b`` (the same executive
    for the local case) and the TiD the source reaches the sink by."""
    source = FloodSource()
    exe_a.install(source)
    sink = SinkDevice("sink", Tally(), [], size, 0)
    sink_tid = exe_b.install(sink)
    return source, sink, exe_a.create_proxy(exe_b.node, sink_tid)


def _drain_outbound(exe: Executive) -> None:
    while (frame := exe.msgi.take_outbound()) is not None:
        exe.frame_free(frame)


def _drain_inbound(exe: Executive) -> None:
    while (frame := exe.msgi.take_inbound()) is not None:
        exe.frame_free(frame)


def pool_and_frame(bench: Bench, p64: bytes, p4k: bytes) -> dict[str, float]:
    pool = BufferPool()
    frame = Frame.build(target=17, initiator=18, payload=p64, xfunction=XF_PING)
    raw = bytearray(frame.tobytes())

    def header_read(_: Any) -> None:
        frame.target
        frame.priority
        frame.function
        frame.xfunction

    return {
        "mem.pool.alloc_free_ns": bench.measure(
            lambda _: pool.free(pool.alloc(HEADER_SIZE + 64))
        ),
        "mem.pool.alloc_free_4k_ns": bench.measure(
            lambda _: pool.free(pool.alloc(HEADER_SIZE + 4096))
        ),
        "i2o.frame.build_ns": bench.measure(
            lambda _: Frame.build(
                target=17, initiator=18, payload=p64, xfunction=XF_PING
            )
        ),
        # ``Frame.parse`` wraps the buffer and validates the header.
        "i2o.frame.parse_validate_ns": bench.measure(lambda _: Frame.parse(raw)),
        "i2o.frame.header_read_ns": bench.measure(header_read),
    }


def scheduler(bench: Bench, p64: bytes) -> dict[str, float]:
    def build(k: int) -> Frame:
        return Frame.build(
            target=16 + k % 16, initiator=1, payload=p64, xfunction=XF_FLOOD,
            priority=FloodSource.PRIORITIES[k % 3],
        )

    shallow = PriorityScheduler()
    one = build(0)

    def push_pop(_: Any) -> None:
        shallow.push(one)
        shallow.pop()

    # 256 frames over 16 devices x 3 priorities; each call re-queues the
    # frame it just popped, so the served level stays ~86 deep and the
    # round-robin ring keeps turning.
    deep = PriorityScheduler()
    for k in range(256):
        deep.push(build(k))
    held = [build(0)]

    def push_pop_deep(_: Any) -> None:
        deep.push(held[0])
        held[0] = deep.pop()

    return {
        "core.scheduler.push_pop_ns": bench.measure(push_pop),
        "core.scheduler.push_pop_deep_ns": bench.measure(push_pop_deep),
    }


def executive_local(bench: Bench, p64: bytes) -> dict[str, float]:
    """Stages on one executive with no peer transport — the X2 floor."""
    exe = Executive(node=0)
    source, sink, sink_tid = _source_and_sink(exe, exe, 64)
    echo = EchoDevice()
    exe.install(echo)
    request = Frame.build(
        target=echo.tid, initiator=source.tid, payload=p64, xfunction=XF_PING
    )
    message = Frame.build(
        target=sink_tid, initiator=source.tid, payload=p64, xfunction=XF_FLOOD
    )

    def local_dispatch(_: Any) -> None:
        source.send(sink_tid, p64, xfunction=XF_FLOOD)
        exe.step()

    def start_cancel(_: Any) -> None:
        sink.cancel_timer(sink.start_timer(1_000_000_000))

    def trim_timer_heap() -> None:
        # Cancelled deadlines stay in the heap until a poll passes them.
        exe.timers.poll(exe.clock.now_ns() + 2_000_000_000)

    idle = Executive(node=1)
    PeerTransportAgent.attach(idle).register(
        LoopbackTransport(LoopbackNetwork()), default=True
    )

    out = {
        "core.dispatcher.lookup_ns": bench.measure(
            lambda _: sink.table.lookup(message).prepare(message)
        ),
        "core.device.send_ns": bench.measure(
            lambda _: source.send(sink_tid, p64, xfunction=XF_FLOOD),
            chunk=256, cleanup=lambda: _drain_outbound(exe),
        ),
        "core.device.reply_ns": bench.measure(
            lambda _: echo.reply(request, request.payload),
            chunk=256, cleanup=lambda: _drain_outbound(exe),
        ),
        "core.executive.frame_alloc_free_ns": bench.measure(
            lambda _: exe.frame_free(exe.frame_alloc(64, target=sink_tid))
        ),
        "core.executive.frame_free_ns": bench.measure(
            exe.frame_free, chunk=256,
            prepare=lambda n: [
                exe.frame_alloc(64, target=sink_tid) for _ in range(n)
            ],
        ),
        "core.executive.local_dispatch_ns": bench.measure(local_dispatch),
        "core.executive.idle_step_ns": bench.measure(lambda _: idle.step()),
        "core.timer.start_cancel_ns": bench.measure(
            start_cancel, chunk=1000, cleanup=trim_timer_heap
        ),
    }
    _require(sink.received > 0, "local sink received nothing")
    _require(exe.pool.in_flight == 0, "local executive leaked blocks")
    return out


def transport_pair(
    bench: Bench, kind: str, p64: bytes, with_stages: bool
) -> dict[str, float]:
    exe_a, exe_b = executive_pair(kind)
    source, sink, proxy = _source_and_sink(exe_a, exe_b, 64)
    pta = exe_a.pta
    route = exe_a.route_for(proxy)
    (pt_b,) = exe_b.pta.transports()
    _require(pta is not None and route is not None, "no route to the sink")

    def frames(n: int) -> list[Frame]:
        return [
            exe_a.frame_alloc(
                64, target=proxy, initiator=source.tid, xfunction=XF_FLOOD
            )
            for _ in range(n)
        ]

    def ingest_and_drain() -> None:
        pt_b.poll()
        _drain_inbound(exe_b)

    def stage_one(n: int) -> range:
        for frame in frames(n):
            pta.forward(frame, route)
        return range(n)

    def oneway(_: Any) -> None:
        source.send(proxy, p64, xfunction=XF_FLOOD)
        exe_a.step()
        exe_b.step()

    out = {f"transports.{kind}.oneway_ns": bench.measure(oneway)}
    if with_stages:
        out[f"transports.{kind}.transmit_ns"] = bench.measure(
            lambda frame: pta.forward(frame, route),
            chunk=256, prepare=frames, cleanup=ingest_and_drain,
        )
        out[f"transports.{kind}.poll_ingest_ns"] = bench.measure(
            lambda _: pt_b.poll(),
            chunk=1, prepare=stage_one, cleanup=lambda: _drain_inbound(exe_b),
        )
    _require(sink.received > 0, f"{kind} sink received nothing")
    _require(
        exe_a.pool.in_flight == 0 and exe_b.pool.in_flight == 0,
        f"{kind} pair leaked blocks",
    )
    return out


def wire(bench: Bench, p4k: bytes) -> dict[str, float]:
    frame = Frame.build(target=17, initiator=18, payload=p4k, xfunction=XF_PING)
    message = encode_wire(0, frame)
    return {
        "transports.wire.encode_parts_ns": bench.measure(
            lambda _: encode_wire_parts(0, frame)
        ),
        "transports.wire.decode_ns": bench.measure(
            lambda _: decode_wire(message)
        ),
    }


def reliable_and_journal(
    bench: Bench, p1k: bytes, scratch: Path
) -> dict[str, float]:
    exe_a, exe_b = executive_pair("loopback")
    tx = ReliableEndpoint("tx", retransmit_ns=1_000_000_000)
    rx = ReliableEndpoint("rx")
    exe_a.install(tx)
    target = exe_a.create_proxy(1, exe_b.install(rx))

    def until_acked() -> None:
        while tx.in_flight:
            exe_a.step()
            exe_b.step()

    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / "micro.journal"
    path.unlink(missing_ok=True)
    store = SegmentStore(path, flush_every=1, fsync=False)
    seqs = iter(range(1, 1 << 60))
    live: list[int] = []

    def fresh(n: int) -> list[int]:
        live[:] = [next(seqs) for _ in range(n)]
        return live

    def sent(n: int) -> list[int]:
        for seq in fresh(n):
            store.append_send(seq, 1, 17, p1k)
        return live

    def ack_live() -> None:
        for seq in live:
            store.append_ack(seq)

    try:
        out = {
            "core.reliable.send_reliable_ns": bench.measure(
                lambda _: tx.send_reliable(target, p1k),
                chunk=16, cleanup=until_acked,
            ),
            "durable.journal.encode_record_ns": bench.measure(
                lambda seq: encode_record(
                    Record(kind=REC_SEND, seq=seq, node=1, tid=17, payload=p1k)
                )
            ),
            "durable.segments.append_send_ns": bench.measure(
                lambda seq: store.append_send(seq, 1, 17, p1k),
                chunk=16, prepare=fresh, cleanup=ack_live,
            ),
            "durable.segments.append_ack_ns": bench.measure(
                store.append_ack, chunk=16, prepare=sent,
            ),
        }
    finally:
        store.close()
        path.unlink(missing_ok=True)
    _require(rx.delivered > 0, "reliable receiver got nothing")
    _require(tx.retransmissions == 0, "reliable sender retransmitted")
    return out


def dataflow_and_boot(bench: Bench) -> dict[str, float]:
    spec = event_builder_spec(4, 4, transport="loopback", mean_fragment=2048)
    cluster = bootstrap(spec)
    trigger = cluster.device("trigger")
    exe = cluster.executive(0)
    ledger = cluster.dataflow_ledger
    event_id = (1).to_bytes(8, "little")

    def return_credits() -> None:
        while (frame := exe.msgi.take_outbound()) is not None:
            ledger.on_dispatched(
                exe.node, frame.target, frame.function, frame.xfunction
            )
            exe.frame_free(frame)

    return {
        # 32 per chunk: inside the trigger->evm edge's 64 credits.
        "dataflow.routing.emit_ns": bench.measure(
            lambda _: trigger.emit(MT_TRIGGER, event_id),
            chunk=32, cleanup=return_credits,
        ),
        "config.bootstrap.boot_ms": bench.measure(
            lambda _: bootstrap(spec), calls=max(1, bench.calls // 200)
        ) / 1e6,
    }


def reference_rtt_ns(seed: int, round_trips: int, scratch: Path) -> float:
    """Median queued ping-pong round trip in *this* process, so the
    cross-check divides stage costs by a round trip measured under the
    same interpreter state and machine load."""
    workload = PingPongQueued(seed, NullTracer(), scratch)
    workload.build()
    workload.run(workload.warmup_ops)
    workload.reset_samples()
    workload.run(round_trips)
    problems = workload.finish()
    _require(not problems, f"reference ping-pong: {problems}")
    return statistics.median(workload.latencies_ns)


def run_all(
    seed: int, calls: int, batches: int, scratch: Path
) -> dict[str, Any]:
    rng = random.Random(seed)
    p64, p1k, p4k = rng.randbytes(64), rng.randbytes(1024), rng.randbytes(4096)
    bench = Bench(calls, batches)
    out: dict[str, float] = {}
    out.update(pool_and_frame(bench, p64, p4k))
    out.update(scheduler(bench, p64))
    out.update(executive_local(bench, p64))
    out.update(transport_pair(bench, "queued", p64, with_stages=True))
    out.update(transport_pair(bench, "loopback", p64, with_stages=False))
    out.update(wire(bench, p4k))
    out.update(reliable_and_journal(bench, p1k, scratch))
    out.update(dataflow_and_boot(bench))

    # What step() adds around the stages it calls: the local dispatch
    # minus every stage timed on its own above.
    out["core.executive.step_glue_ns"] = (
        out["core.executive.local_dispatch_ns"]
        - out["core.device.send_ns"]
        - out["core.scheduler.push_pop_ns"]
        - out["core.dispatcher.lookup_ns"]
        - out["core.executive.frame_free_ns"]
    )
    # The paper's 9.53 us (stage sum) against 8.9 us (blackbox), on
    # ourselves: a request and a reply each cross every stage once.
    per_direction = (
        out["transports.queued.transmit_ns"]
        + out["transports.queued.poll_ingest_ns"]
        + out["core.scheduler.push_pop_ns"]
        + out["core.dispatcher.lookup_ns"]
        + out["core.executive.frame_free_ns"]
        + out["core.executive.step_glue_ns"]
    )
    rtt_ns = reference_rtt_ns(seed, 5 * calls, scratch)
    out["crosscheck.stage_sum_over_rtt"] = (
        out["core.device.send_ns"] + out["core.device.reply_ns"]
        + 2 * per_direction
    ) / rtt_ns
    return {
        "layers": out,
        "reference_rtt_us": rtt_ns / 1e3,
        "clock_ns": bench.clock_ns,
        "loop_ns": bench.loop_ns,
        "calls": calls,
        "batches": batches,
    }
