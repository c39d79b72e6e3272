"""``benchmarks/history/BENCH_<pr>.json``: the checked-in trajectory.

Each file records one PR's alternating parent/change pairs.  The names
in it must be the benchmark's own, or a later comparison reads nothing.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[2]
HISTORY = sorted((ROOT / "benchmarks" / "history").glob("BENCH_*.json"))


def test_history_is_not_empty():
    assert HISTORY


@pytest.mark.parametrize("path", HISTORY, ids=lambda p: p.stem)
def test_history_names_exist_in_the_benchmark(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["pairs"] >= 10
    assert isinstance(record["seed"], int)
    assert set(record["sides"]) == {"parent", "change"}
    for side in record["sides"].values():
        assert side["commit"]
        assert set(side["workloads"]) == workloads
        for per_metric in side["workloads"].values():
            assert set(per_metric) == metrics | {"failed_ops"}
            for name in metrics:
                stats = per_metric[name]
                assert stats["q1"] <= stats["median"] <= stats["q3"], name
    claimed = record["claimed"]
    if claimed is None:  # a PR that claims no gain, only no regression
        return
    assert claimed["workload"] in workloads and claimed["metric"] in metrics
    assert claimed["wins"] + claimed["ties"] + claimed["losses"] == record["pairs"]


@pytest.mark.parametrize("path", HISTORY, ids=lambda p: p.stem)
def test_optional_sections_use_the_benchmarks_names(path):
    """``seed2`` (the claim repeated on a seed not used while the change
    was written) and ``traced`` (one ``--trace 1`` row set per side) are
    optional, but where present they follow the same rule."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"] for m in declared["end_to_end"]}
    layers = {m["name"] for m in declared["per_layer"]}
    record = json.loads(path.read_text(encoding="utf-8"))
    traced = record.get("traced")
    if traced is not None:
        assert traced["workload"] in {w["name"] for w in declared["workloads"]}
        for side in ("parent", "change"):
            assert traced[side]
            assert set(traced[side]) - {"attempted_ops"} <= layers
    repeat = record.get("seed2")
    if repeat is not None:
        assert repeat["seed"] != record["seed"]
        assert repeat["workload"] == record["claimed"]["workload"]
        assert repeat["metric"] == record["claimed"]["metric"]
        assert repeat["wins"] + repeat["ties"] + repeat["losses"] == repeat["pairs"] >= 5
        for side in ("parent", "change"):
            assert set(repeat[side]) == metrics | {"failed_ops"}


def test_bench_23_records_where_the_journal_saving_is():
    """ISSUE 23's traced evidence, pinned as recorded: the rewrite is
    amortised (compactions per op down >= 10x), both appends are under
    their stated costs, and bytes written per message fell."""
    record = json.loads(
        (ROOT / "benchmarks" / "history" / "BENCH_23.json").read_text("utf-8")
    )
    claimed = record["claimed"]
    assert (claimed["workload"], claimed["metric"]) == (
        "durable_stream", "ops_per_s"
    )
    assert claimed["wins"] * 10 >= 9 * record["pairs"]
    parent, change = record["traced"]["parent"], record["traced"]["change"]
    per_10k = record["traced"]["compactions_per_10k_ops"]
    assert per_10k["change"] * 10 <= per_10k["parent"]
    assert change["durable.segments.append_ack_ns"] <= 8_000
    assert change["durable.segments.append_send_ns"] <= 7_000
    assert (change["durable.segments.bytes_per_op"]
            < parent["durable.segments.bytes_per_op"])
    for side in (parent, change):
        assert side["core.reliable.retransmissions"] == 0
        assert side["core.reliable.duplicates_suppressed"] == 0


def test_bench_24_records_that_the_saving_is_waiting_not_work():
    """ISSUE 24's evidence, pinned as recorded: the round trip fell by
    more than a quarter on both seeds while every count of work done
    per round trip repeated exactly on both sides."""
    record = json.loads(
        (ROOT / "benchmarks" / "history" / "BENCH_24.json").read_text("utf-8")
    )
    claimed = record["claimed"]
    assert (claimed["workload"], claimed["metric"]) == (
        "tcp_pingpong", "rtt_us_p50"
    )
    assert claimed["wins"] * 10 >= 9 * record["pairs"]
    assert record["seed2"]["wins"] == record["seed2"]["pairs"]
    before = record["sides"]["parent"]["workloads"]["tcp_pingpong"]["rtt_us_p50"]
    after = record["sides"]["change"]["workloads"]["tcp_pingpong"]["rtt_us_p50"]
    assert after["median"] <= 0.75 * before["median"]
    assert before["median"] - after["median"] > before["q3"] - before["q1"]
    parent, change = record["traced"]["parent"], record["traced"]["change"]
    for side in (parent, change):
        assert side["transports.tcp.rx_copies_per_frame"] == 1.0
        assert side["transports.tcp.tx_copies_per_frame"] == 0.0
        assert side["transports.tcp.wire_bytes_per_op"] == 8280
        assert side["mem.pool.allocs_per_op"] == 4.0
        assert side["core.executive.dispatched_per_op"] == 2.0
    assert change["driver.raw_rtt_us_p50"] < parent["driver.raw_rtt_us_p50"]
    assert change["driver.rtt_us_p99"] < parent["driver.rtt_us_p99"]


def test_bench_46_records_the_trusted_hop():
    """The in-process hop's removed checks, pinned as recorded: the round
    trip fell on every pair at both seeds, by more than the parent's own
    spread, with the work per round trip unchanged; whether the 10 %
    target was met is stated against the recorded medians."""
    record = json.loads(
        (ROOT / "benchmarks" / "history" / "BENCH_46.json").read_text("utf-8")
    )
    claimed = record["claimed"]
    assert (claimed["workload"], claimed["metric"]) == (
        "pingpong_queued", "rtt_us_p50"
    )
    assert claimed["wins"] * 10 >= 9 * record["pairs"]
    assert record["seed2"]["wins"] == record["seed2"]["pairs"]
    before = record["sides"]["parent"]["workloads"]["pingpong_queued"]["rtt_us_p50"]
    after = record["sides"]["change"]["workloads"]["pingpong_queued"]["rtt_us_p50"]
    assert before["median"] - after["median"] > before["q3"] - before["q1"]
    target = record["claim_target"]  # stated against the medians above
    pct = round(100 * (after["median"] / before["median"] - 1), 1)
    assert target["seed1_change_pct"] == pct
    assert target["met"] is (pct <= -10)
    per = record["pairs_per_workload"]
    assert per["tcp_pingpong"] >= 7
    assert min(per.values()) >= 3
    for side in record["sides"].values():
        assert all(w["failed_ops"] == 0 for w in side["workloads"].values())
    parent, change = record["traced"]["parent"], record["traced"]["change"]
    for side in (parent, change):
        assert side["mem.pool.allocs_per_op"] == 2.0
        assert side["core.executive.dispatched_per_op"] == 2.0
        assert side["transports.loopback.copies_per_frame"] == 0.0
    # The saving is the ingest's validate: the queued receive side fell.
    assert (change["transports.queued.poll_ingest_ns"]
            < parent["transports.queued.poll_ingest_ns"])
    for side in ("parent", "change"):
        assert set(record["a1_native_ns"][side]) == {
            "Executive.frame_alloc+frame_free", "TableAllocator alloc+release"}


def test_bench_48_records_the_dispatch_half_at_its_floor():
    """The drain loop, the explicit pool lock, the positional loan and
    the folded release, pinned as recorded: the round trip fell on at
    least nine pairs in ten at both seeds, by more than the parent's own
    spread, with the work per round trip unchanged and one ring record
    fewer per recorded message."""
    record = json.loads(
        (ROOT / "benchmarks" / "history" / "BENCH_48.json").read_text("utf-8")
    )
    claimed = record["claimed"]
    assert (claimed["workload"], claimed["metric"]) == (
        "pingpong_queued", "rtt_us_p50"
    )
    assert claimed["wins"] * 10 >= 9 * record["pairs"]
    assert record["seed2"]["wins"] * 10 >= 9 * record["seed2"]["pairs"]
    before = record["sides"]["parent"]["workloads"]["pingpong_queued"]["rtt_us_p50"]
    after = record["sides"]["change"]["workloads"]["pingpong_queued"]["rtt_us_p50"]
    assert before["median"] - after["median"] > before["q3"] - before["q1"]
    target = record["claim_target"]  # stated against the medians above
    pct = round(100 * (after["median"] / before["median"] - 1), 1)
    assert target["seed1_change_pct"] == pct
    assert target["met"] is (pct <= -15 and target["seed2_change_pct"] <= -15)
    per = record["pairs_per_workload"]
    assert per["tcp_pingpong"] >= 7
    assert min(per.values()) >= 3
    for side in record["sides"].values():
        assert all(w["failed_ops"] == 0 for w in side["workloads"].values())
    counts = record["exact_counts"]
    for side in (counts["pingpong_queued --trace 1, both sides"],
                 counts["parent_traced"]):
        assert side["mem.pool.allocs_per_op"] == 2.0
        assert side["core.executive.dispatched_per_op"] == 2.0
    ring = counts["ring_records_per_recorded_message"]
    assert ring["change"] == ring["parent"] - 1
    for side in ("parent", "change"):
        assert {"Executive.frame_alloc+frame_free",
                "TableAllocator alloc+release"} <= set(record["a1_native_ns"][side])
    assert all(run["gate_passed"] for run in record["x6_overhead"]["change"])


def test_bench_51_records_the_transport_half_at_its_floor():
    """The one hand-off and the one ingest per in-process hop, pinned as
    recorded: flood_fanin's throughput rose on nine pairs in ten at
    seed 1 and by more than the parent's own spread at both seeds; the
    hop made 12 repro calls where it made 24; no run failed an op, and
    every X6 run of the change passed its gate."""
    record = json.loads(
        (ROOT / "benchmarks" / "history" / "BENCH_51.json").read_text("utf-8")
    )
    claimed = record["claimed"]
    assert (claimed["workload"], claimed["metric"]) == ("flood_fanin", "ops_per_s")
    assert claimed["wins"] * 10 >= 9 * record["pairs"]
    before = record["sides"]["parent"]["workloads"]["flood_fanin"]["ops_per_s"]
    after = record["sides"]["change"]["workloads"]["flood_fanin"]["ops_per_s"]
    assert after["median"] - before["median"] > before["q3"] - before["q1"]
    seed2 = record["seed2"]
    assert seed2["pairs"] >= 10
    before2, after2 = seed2["parent"]["ops_per_s"], seed2["change"]["ops_per_s"]
    assert after2["median"] - before2["median"] > before2["q3"] - before2["q1"]
    target = record["claim_target"]  # stated against the medians above
    pct = round(100 * (after["median"] / before["median"] - 1), 1)
    pct2 = round(100 * (after2["median"] / before2["median"] - 1), 1)
    assert (target["seed1_change_pct"], target["seed2_change_pct"]) == (pct, pct2)
    assert target["met"] is (pct >= 10 and pct2 >= 10)
    per = record["pairs_per_workload"]
    assert per["tcp_pingpong"] >= 7
    assert min(per.values()) >= 3
    for side in record["sides"].values():
        assert all(w["failed_ops"] == 0 for w in side["workloads"].values())
    calls = record["exact_counts"]["repro_calls"]
    for transport in ("loopback", "queued"):
        assert calls["parent"][transport]["hop"] == 24
        assert calls["change"][transport]["hop"] == 12
        assert (calls["change"][transport]["round_trip"]
                < calls["parent"][transport]["round_trip"])
    parent, change = record["traced"]["parent"], record["traced"]["change"]
    for side in (parent, change):
        assert side["mem.pool.allocs_per_op"] == 2.0
        assert side["core.executive.dispatched_per_op"] == 2.0
        assert side["transports.loopback.copies_per_frame"] == 0.0
    assert all(run["gate_passed"] for run in record["x6_overhead"]["change"])


def test_bench_55_records_the_journal_half_of_the_burst_ack():
    """One ACK record and one write per acknowledgement frame, pinned as
    recorded: durable_stream's throughput rose on nine pairs in ten at
    seed 1 and by more than the parent's own spread at both seeds; a
    message made 1.0625 journal writes where it made 2.0, 0.0625 ACK
    records where it made 1.0, and fewer repro calls, with the frames
    on the wire unchanged; the run-order split is recorded for both
    seeds, and every X6 run of both sides is reported."""
    record = json.loads(
        (ROOT / "benchmarks" / "history" / "BENCH_55.json").read_text("utf-8")
    )
    claimed = record["claimed"]
    assert (claimed["workload"], claimed["metric"]) == ("durable_stream", "ops_per_s")
    assert claimed["wins"] * 10 >= 9 * record["pairs"]
    before = record["sides"]["parent"]["workloads"]["durable_stream"]["ops_per_s"]
    after = record["sides"]["change"]["workloads"]["durable_stream"]["ops_per_s"]
    assert after["median"] - before["median"] > before["q3"] - before["q1"]
    seed2 = record["seed2"]
    before2, after2 = seed2["parent"]["ops_per_s"], seed2["change"]["ops_per_s"]
    assert after2["median"] - before2["median"] > before2["q3"] - before2["q1"]
    target = record["claim_target"]  # stated against the medians above
    pct = round(100 * (after["median"] / before["median"] - 1), 1)
    pct2 = round(100 * (after2["median"] / before2["median"] - 1), 1)
    assert (target["seed1_change_pct"], target["seed2_change_pct"]) == (pct, pct2)
    per = record["pairs_per_workload"]
    assert per["tcp_pingpong"] >= 7 and per["pingpong_queued"] >= 7
    assert min(per.values()) >= 3
    for side in record["sides"].values():
        assert all(w["failed_ops"] == 0 for w in side["workloads"].values())
    order = record["order_effect"]["durable_stream@1"]
    assert order["parent_first"]["pairs"] == order["change_first"]["pairs"] == 5
    counts = record["exact_counts"]
    parent, change = counts["parent"], counts["change"]
    assert (parent["os_writev"], change["os_writev"]) == (2.0, 1.0625)
    assert parent["journal_ack_records"] == 1.0
    assert change["journal_ack_records"] == 0.0625
    assert change["repro_calls"] <= 55 < parent["repro_calls"]
    assert parent["frames_on_the_wire"] == change["frames_on_the_wire"] == 1.0625
    x6 = record["x6_overhead"]
    assert min(len(x6["parent"]), len(x6["change"])) >= 3
