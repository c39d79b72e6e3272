"""Which end-to-end metric each per-layer metric is predicted to move.

Written down before any optimisation is attempted (the method's rule:
say which number should move on which workload, and which should stay).
``BENCHMARK.json`` owns the metric names, units and directions; this
table owns the predictions.  On every workload a layer metric does not
name, the prediction is *no change*.  The README's table is generated
from the two together (``python -m benchmarks.trajectory
--layer-table``) and a test keeps the three in step.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
#: everything the benchmark writes: results, traces, journal scratch
OUT_DIR = Path(__file__).resolve().parent / "out"

_PING = ("rtt_us_p50", "pingpong_queued")
_FLOOD = ("ops_per_s", "flood_fanin")
_EVB = ("ops_per_s", "evb_4x4")
_TCP = ("rtt_us_p50", "tcp_pingpong")
_TCP_CPU = ("cpu_us_per_op", "tcp_pingpong")
_DURABLE = ("ops_per_s", "durable_stream")

_GROUPS: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    ("mem.pool.alloc_free_ns mem.pool.allocs_per_op "
     "mem.pool.high_watermark mem.pool.failed_allocs", (_PING, _FLOOD)),
    ("mem.pool.alloc_free_4k_ns", (_TCP, _EVB)),
    ("i2o.frame.build_ns i2o.frame.parse_validate_ns "
     "i2o.frame.header_read_ns", (_PING,)),
    ("core.scheduler.push_pop_ns", (_PING,)),
    ("core.scheduler.push_pop_deep_ns", (_FLOOD,)),
    ("core.dispatcher.lookup_ns", (_PING,)),
    ("core.device.send_ns core.device.reply_ns", (_PING,)),
    ("core.executive.frame_alloc_free_ns core.executive.frame_free_ns "
     "core.executive.local_dispatch_ns core.executive.step_glue_ns "
     "core.executive.dispatched_per_op core.executive.dropped",
     (_FLOOD, _PING)),
    ("core.executive.idle_step_ns core.executive.idle_step_ratio "
     "core.executive.busy_share_evm core.executive.busy_share_ru "
     "core.executive.busy_share_bu", (_EVB,)),
    ("core.timer.start_cancel_ns", (_DURABLE,)),
    ("core.reliable.send_reliable_ns core.reliable.retransmissions "
     "core.reliable.duplicates_suppressed", (_DURABLE,)),
    ("transports.queued.transmit_ns transports.queued.poll_ingest_ns "
     "transports.queued.oneway_ns", (_PING,)),
    ("transports.loopback.oneway_ns transports.loopback.copies_per_frame",
     (_FLOOD, _EVB)),
    ("transports.wire.encode_parts_ns transports.wire.decode_ns "
     "transports.tcp.tx_copies_per_frame transports.tcp.rx_copies_per_frame "
     "transports.tcp.wire_bytes_per_op", (_TCP, _TCP_CPU)),
    ("durable.journal.encode_record_ns durable.segments.append_send_ns "
     "durable.segments.append_ack_ns durable.segments.compactions "
     "durable.segments.bytes_per_op", (_DURABLE,)),
    ("dataflow.routing.emit_ns dataflow.routing.parked "
     "dataflow.routing.shed daq.wire_msgs_per_event "
     "daq.payload_bytes_per_event", (_EVB,)),
    ("config.bootstrap.boot_ms", (("setup_s", "evb_4x4"),)),
    # the driver's own closed-loop client and the cross-check: informational
    ("driver.rtt_us_p99 driver.rtt_us_max driver.raw_rtt_us_p50 "
     "driver.probe_us driver.trace_overhead_ratio "
     "crosscheck.stage_sum_over_rtt", ()),
)

#: per-layer metric -> ((end-to-end metric, workload), ...)
LAYER_MOVES: dict[str, tuple[tuple[str, str], ...]] = {
    name: targets for names, targets in _GROUPS for name in names.split()
}


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: workloads, metric names, units, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def layer_table(spec: dict[str, Any]) -> str:
    """The README's layer -> end-to-end table, as Markdown."""
    rows = [
        "| per-layer metric | unit | better | predicted to move |",
        "|---|---|---|---|",
    ]
    for metric in spec["per_layer"]:
        moves = LAYER_MOVES[metric["name"]]
        rows.append(
            f"| `{metric['name']}` | {metric['unit']} | {metric['better']} | "
            + (", ".join(f"`{m}`@`{w}`" for m, w in moves) or "— (informational)")
            + " |"
        )
    return "\n".join(rows)
