"""Acceptance: a deliberately slowed dispatch lights up the whole kit.

One two-node loopback cluster with the full profiling kit armed: the
sender's flight recorder mints a trace id, the slow handler blows the
receiver recorder's dispatch budget, and afterwards (a) the slow
dispatch is in the receiver's P99, read off its ring, (b) the budget
has tripped and spilled a flight-recorder dump holding an
``EV_SLOW_FRAME`` with the sender's trace id, and (c) the sampling
profiler attributes a mid-dispatch sample to the slow device's context.
"""

from __future__ import annotations

import time

from repro.core.device import FunctionalListener, Listener
from repro.core.tracing import is_trace_context, trace_root_node
from repro.flightrec.dump import load_dump
from repro.flightrec.recorder import FlightRecorder
from repro.flightrec.records import EV_SLOW_FRAME
from repro.flightrec.timeline import dispatch_percentiles
from repro.profile.sampler import SamplingProfiler

from tests.conftest import make_loopback_cluster, pump

BUDGET_NS = 1_000_000  # 1 ms: the slow handler sleeps 5x that


def test_slowed_dispatch_produces_spill_and_samples(tmp_path):
    cluster = make_loopback_cluster(2)
    cluster[0].attach(FlightRecorder(capacity=256))
    receiver = cluster[1]
    recorder = receiver.attach(FlightRecorder(
        capacity=256, dump_dir=tmp_path, budget_ns=BUDGET_NS,
    ))
    profiler = SamplingProfiler(hz=997.0)
    profiler.register(receiver)
    profiler.watch_thread(1)  # the pump steps the receiver from here

    def slow(frame):
        if not frame.is_reply:
            time.sleep(5 * BUDGET_NS / 1e9)
            # A sampler tick landing here: mid-dispatch.
            profiler.sample_once()

    slow_tid = receiver.install(
        FunctionalListener(name="slowdev", handlers={0x1: slow})
    )
    sender = Listener("sender")
    cluster[0].install(sender)
    proxy = cluster[0].routes.create_proxy(1, slow_tid)
    sender.send(proxy, b"work", xfunction=0x1)
    pump(cluster)

    # (a) the slow dispatch is in the receiver's P99.
    (p99,) = dispatch_percentiles(recorder.records, (99,))
    assert p99 >= 5 * BUDGET_NS

    # (b) the budget tripped and the spill holds the sender's trace id.
    assert recorder.slow_frames >= 1 and recorder.spills >= 1
    dump = load_dump(receiver.flightrec.dump_path())
    assert dump.reason == "slow-frame"
    slow_records = dump.of_kind(EV_SLOW_FRAME)
    assert slow_records
    assert any(
        is_trace_context(r.a) and trace_root_node(r.a) == 0 for r in slow_records
    )
    assert all(r.c >= BUDGET_NS for r in slow_records)

    # (c) the sample taken mid-flight is the slow device's context...
    ((node, ctx, count),) = profiler.hot_contexts()
    assert (node, ctx, count) == (1, (int(slow_tid), ctx[1], 0x1), 1)
    # ...and a sample taken after the dispatch is idle.
    profiler.sample_once()
    assert (profiler.node_samples[1], profiler.node_busy[1]) == (2, 1)
