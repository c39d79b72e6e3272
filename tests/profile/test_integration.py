"""Acceptance: a deliberately slowed dispatch lights up the whole kit.

One two-node loopback cluster with the full profiling kit armed: the
sender's flight recorder mints a trace id, the slow handler blows the
receiver recorder's dispatch budget, and afterwards (a) the receiver's
OpenMetrics exposition carries that trace id as a histogram exemplar
on a slow bucket, (b) the budget has tripped and spilled a
flight-recorder dump holding the matching ``EV_SLOW_FRAME``, and (c)
the sampling profiler can attribute a mid-dispatch sample to the slow
device's context.
"""

from __future__ import annotations

import re
import time

from repro.core.device import FunctionalListener, Listener
from repro.core.executive import DISPATCH_LATENCY_BUCKETS_NS
from repro.core.metrics import DispatchTimer
from repro.core.tracing import is_trace_context
from repro.flightrec import FlightRecorder, load_dump
from repro.flightrec.records import EV_SLOW_FRAME
from repro.profile.sampler import SamplingProfiler

from tests.conftest import make_loopback_cluster, pump

BUDGET_NS = 1_000_000  # 1 ms: the slow handler sleeps 5x that


def test_slowed_dispatch_produces_exemplar_spill_and_samples(tmp_path):
    cluster = make_loopback_cluster(2)
    cluster[0].attach(FlightRecorder(capacity=256))
    receiver = cluster[1]
    receiver.attach(DispatchTimer())
    receiver.metrics.histogram(
        "exe_dispatch_ns", DISPATCH_LATENCY_BUCKETS_NS
    ).enable_exemplars()
    recorder = receiver.attach(FlightRecorder(
        capacity=256, dump_dir=tmp_path, budget_ns=BUDGET_NS,
    ))
    profiler = SamplingProfiler(hz=997.0)
    slot = profiler.register(receiver)
    sampled_ctx = []

    def slow(frame):
        if not frame.is_reply:
            time.sleep(5 * BUDGET_NS / 1e9)
            # Mid-dispatch the sampler would see this exact context.
            sampled_ctx.append(slot.current)

    slow_tid = receiver.install(
        FunctionalListener(name="slowdev", handlers={0x1: slow})
    )
    sender = Listener("sender")
    cluster[0].install(sender)
    proxy = cluster[0].create_proxy(1, slow_tid)
    sender.send(proxy, b"work", xfunction=0x1)
    pump(cluster)

    # (a) the receiver's exposition pins a trace id to a slow bucket.
    text = receiver.metrics.render_openmetrics()
    exemplars = re.findall(r'# \{trace_id="([0-9a-f]+)"\}', text)
    assert exemplars, f"no exemplar in exposition:\n{text}"
    assert text.rstrip().endswith("# EOF")
    trace_id = int(exemplars[-1], 16)
    assert is_trace_context(trace_id)

    # (b) the budget tripped and the spill holds the same trace context.
    assert recorder.slow_frames >= 1 and recorder.spills >= 1
    dump = load_dump(receiver.flightrec.dump_path())
    assert dump.reason == "slow-frame"
    slow_records = dump.of_kind(EV_SLOW_FRAME)
    assert slow_records
    assert any(r.a == trace_id for r in slow_records)
    assert all(r.c >= BUDGET_NS for r in slow_records)

    # (c) the dispatch slot held the slow device's context mid-flight
    # (what any sampler tick landing in the handler would attribute).
    assert sampled_ctx == [(int(slow_tid), sampled_ctx[0][1], 0x1)]
    assert slot.current is None  # and it is clear again afterwards
