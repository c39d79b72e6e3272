"""The workload process: one round of one workload, or the micro suite.

The parent (``cli``) starts a fresh interpreter per round so garbage,
thread and allocator state never carry from one measurement into the
next, and so ``setup_s`` — parent's clock at spawn to the first timed
operation here — includes what a user pays: interpreter start,
imports, cluster construction, connects, journal open and a fixed
warm-up.  The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any

from . import micro
from .layers import OUT_DIR
from .trace import NullTracer, Tracer
from .workloads import UNBOUNDED, WORKLOADS, SegmentClock, Workload

#: Slice width: well under the host's few-second slow phases, long
#: enough for >= 100 operations of the slowest workload.
SLICE_NS = 100_000_000

def pin_to_one_core() -> None:
    """Keep the worker process on one core (the parent stays free).

    At most one workload thread is ever runnable, so one core is
    enough — and across cores every hand-off between the two
    ``tcp_pingpong`` executive threads pays a cross-CPU wake-up, which
    on the sizing VM doubles the round trip (190 -> 400 us) depending
    on where the scheduler happened to put the threads.  That is the
    hypervisor's cost, not the framework's.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def percentile(sorted_values: list[int], q: float) -> int:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def slice_values(
    clock: SegmentClock, latencies_ns: list[int]
) -> dict[str, list[float]]:
    """Per-slice wall and CPU time per operation and median latency,
    as measured, and every speed-probe reading of the segment."""
    values: dict[str, list[float]] = {
        "wall_us_per_op": [], "cpu_us_per_op": [], "rtt_us_p50": [],
        "probe_us": [ns / 1e3 for ns in clock.probes_ns],
    }
    for (t0, ops0, n0, cpu0), (t1, ops1, n1, cpu1) in zip(
        clock.starts, clock.ends
    ):
        ops = ops1 - ops0
        if ops > 0 and n1 > n0:
            values["wall_us_per_op"].append((t1 - t0) / 1e3 / ops)
            values["cpu_us_per_op"].append((cpu1 - cpu0) / 1e3 / ops)
            values["rtt_us_p50"].append(
                statistics.median(latencies_ns[n0:n1]) / 1e3
            )
    return values


def run_round(
    workload: Workload, seconds: float, t0_ns: int
) -> dict[str, Any]:
    """Build, warm up, measure ``seconds`` of closed-loop load, verify."""
    tracer = workload.tracer
    result: dict[str, Any] = {
        "workload": workload.name, "shape": workload.shape(), "problems": [],
    }
    ops = 0
    try:
        workload.build()
        workload.run(workload.warmup_ops)
        workload.reset_samples()
        gc.collect()
        before = workload.counters()
        tracer.counters("segment_start", before)
        result["setup_s"] = (time.monotonic_ns() - t0_ns) / 1e9
        cpu0 = time.process_time_ns()
        clock = SegmentClock(
            seconds, min(SLICE_NS, int(seconds * 1e9 / 4)), workload.progress
        )
        wall0 = clock.start_ns
        with tracer.span("segment"):
            ops = workload.run(UNBOUNDED, clock)
        wall1 = time.perf_counter_ns()
        cpu1 = time.process_time_ns()
        after = workload.counters()
        tracer.counters("segment_end", after)
        problems = workload.finish()
    except Exception as exc:  # a crash is a failed round, with its reason
        result["problems"].append(f"{type(exc).__name__}: {exc}")
        result["ops"] = max(ops, 1)
        result["failed_ops"] = result["ops"]
        return result

    if ops == 0:
        result["problems"].append("no operation completed in the segment")
        result["ops"] = result["failed_ops"] = 1
        return result
    wall_ns = wall1 - wall0
    result["slices"] = slice_values(clock, workload.latencies_ns)
    latencies = sorted(workload.latencies_ns)
    delta = {key: after[key] - before[key] for key in after}
    result.update(
        ops=ops,
        failed_ops=min(ops, sum(count for count, _ in problems)),
        problems=[reason for _, reason in problems],
        wall_s=wall_ns / 1e9,
        latency_samples=len(latencies),
        # Over the whole segment, drain included, as measured; the
        # parent derives the speed-corrected values from the slices.
        metrics={
            "setup_s": result["setup_s"],
            "rtt_us_p50": statistics.median(latencies) / 1e3,
            "ops_per_s": ops / (wall_ns / 1e9),
            "cpu_us_per_op": (cpu1 - cpu0) / 1e3 / ops,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        layers={
            "mem.pool.allocs_per_op": delta["pool_allocs"] / ops,
            "mem.pool.high_watermark": after["pool_high_watermark"],
            "mem.pool.failed_allocs": delta["pool_failed_allocs"],
            "core.executive.dispatched_per_op": delta["dispatched"] / ops,
            "core.executive.dropped": delta["dropped"],
            "driver.rtt_us_p99": percentile(latencies, 0.99) / 1e3,
            "driver.rtt_us_max": latencies[-1] / 1e3,
            **workload.layer_counts(delta, ops),
        },
    )
    if tracer.enabled:
        stats = tracer.step_stats(wall0, wall1)
        layers = result["layers"]
        if stats["steps"]:
            layers["core.executive.idle_step_ratio"] = (
                stats["idle_steps"] / stats["steps"]
            )
        roles = workload.roles()
        for node, busy_ns in stats["busy_ns"].items():
            role = roles.get(node)
            if role is not None:
                key = f"core.executive.busy_share_{role}"
                layers[key] = layers.get(key, 0.0) + busy_ns / wall_ns
        tracer.write(OUT_DIR / f"trace_{workload.name}.json")
        result["spans"] = len(tracer.spans)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.trajectory.worker")
    sub = parser.add_subparsers(dest="mode", required=True)
    rnd = sub.add_parser("round")
    rnd.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    rnd.add_argument("--seed", type=int, required=True)
    rnd.add_argument("--seconds", type=float, required=True)
    rnd.add_argument("--traced", type=int, default=0)
    rnd.add_argument("--t0-ns", type=int, required=True)
    mic = sub.add_parser("micro")
    mic.add_argument("--seed", type=int, required=True)
    mic.add_argument("--calls", type=int, required=True)
    mic.add_argument("--batches", type=int, required=True)
    args = parser.parse_args(argv)

    pin_to_one_core()
    if args.mode == "micro":
        result: dict[str, Any] = micro.run_all(
            args.seed, args.calls, args.batches, OUT_DIR / "tmp"
        )
    else:
        cls = WORKLOADS[args.workload]
        if cls.threads > (os.cpu_count() or 1):
            print(
                f"refusing to run: {cls.name} starts {cls.threads} executive "
                f"threads but this host has {os.cpu_count()} cores",
                file=sys.stderr,
            )
            return 2
        tracer = Tracer(args.workload) if args.traced else NullTracer()
        workload = cls(args.seed, tracer, OUT_DIR / "tmp")
        result = run_round(workload, args.seconds, args.t0_ns)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
