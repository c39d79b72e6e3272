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
