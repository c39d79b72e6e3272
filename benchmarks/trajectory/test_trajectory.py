"""Smoke tests of the benchmark itself (``python -m pytest
benchmarks/trajectory -q``): it stays self-contained, its names stay in
step with ``BENCHMARK.json``, a quick run yields every metric, and a
wrong answer is counted, not hidden."""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from . import cli  # noqa: E402
from .layers import LAYER_MOVES, layer_table, load_spec  # noqa: E402

SPEC = load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: the only parts of ``repro`` the driver may lean on (README: "What
#: the driver depends on")
ALLOWED = (
    "repro.core", "repro.mem", "repro.i2o", "repro.transports",
    "repro.durable", "repro.daq", "repro.dataflow.examples",
    "repro.config.bootstrap",
)


def _imports(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module or "")
    return found


def test_driver_is_self_contained():
    for path in HERE.glob("*.py"):
        for module in _imports(path):
            assert not module.startswith("benchmarks.bench_"), (path, module)
            if module == "repro" or module.startswith("repro."):
                assert any(
                    module == ok or module.startswith(ok + ".")
                    for ok in ALLOWED
                ), f"{path.name} imports {module}"


def test_names_match_benchmark_json():
    from .workloads import WORKLOADS

    workloads = [w["name"] for w in SPEC["workloads"]]
    assert workloads == list(WORKLOADS)
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(per_layer) == sorted(LAYER_MOVES)
    for name in workloads + end_to_end + per_layer:
        assert NAME.match(name), name
    assert len(set(workloads + end_to_end + per_layer)) == len(
        workloads + end_to_end + per_layer
    )
    for moves in LAYER_MOVES.values():
        for metric, workload in moves:
            assert metric in end_to_end and workload in workloads
    assert SPEC["paths"] == ["benchmarks/trajectory"]


def test_readme_layer_table_is_generated():
    readme = (HERE / "README.md").read_text(encoding="utf-8")
    assert layer_table(SPEC) in readme, (
        "regenerate with: python -m benchmarks.trajectory --layer-table"
    )


def _run(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.trajectory", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_quick_run_yields_every_metric():
    proc = _run("--quick", "--trace")
    assert proc.returncode == 0, proc.stderr
    run = json.loads((HERE / "out" / "result.json").read_text())
    assert list(run["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, result in run["workloads"].items():
        assert result["failed_ops"] == 0, (name, result["problems"])
        assert result["ops"] > 0
        assert set(result["end_to_end"]) == {
            m["name"] for m in SPEC["end_to_end"]
        }
        for value in result["end_to_end"].values():
            assert value["min"] > 0
        assert list(result["per_layer"]) == [
            m["name"] for m in SPEC["per_layer"]
        ]
        trace = json.loads((HERE / "out" / f"trace_{name}.json").read_text())
        assert trace["workload"] == name and trace["spans"]
    for key in ("commit", "python", "nproc", "loadavg_1m_at_start", "seed"):
        assert key in run["provenance"]
    shape = run["workloads"]["flood_fanin"]["rounds"][0]["shape"]
    assert shape["window"] == 256 and shape["loop"]
    # The per-layer predictions that must hold on unchanged code.
    layers = run["workloads"]
    assert layers["flood_fanin"]["per_layer"][
        "transports.loopback.copies_per_frame"] == 0
    tcp = layers["tcp_pingpong"]["per_layer"]
    assert tcp["transports.tcp.tx_copies_per_frame"] == 0
    assert tcp["transports.tcp.rx_copies_per_frame"] == 1
    assert layers["durable_stream"]["per_layer"][
        "core.reliable.retransmissions"] == 0
    assert layers["evb_4x4"]["per_layer"]["dataflow.routing.shed"] == 0
    assert tcp["crosscheck.stage_sum_over_rtt"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_form_ends_with_the_result_line(trace):
    proc = _run("--workload", "pingpong_queued", "--seed", "7",
                "--seconds", "0.2", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_a_broken_echo_is_counted_as_failed_ops(tmp_path):
    from .devices import EchoDevice
    from .trace import NullTracer
    from .worker import run_round
    from .workloads import PingPongQueued

    class TruncatingEcho(EchoDevice):
        def _on_ping(self, frame):
            if not frame.is_reply:
                self.reply(frame, frame.payload[:-1])
                self.echoed += 1

    workload = PingPongQueued(
        1, NullTracer(), tmp_path, echo_factory=TruncatingEcho
    )
    result = run_round(workload, 0.05, time.monotonic_ns())
    assert result["failed_ops"] == result["ops"] > 0
    assert any("bad echoes" in p for p in result["problems"])


def test_a_silent_echo_stalls_into_failed_ops(tmp_path, monkeypatch):
    from . import workloads
    from .devices import EchoDevice
    from .trace import NullTracer
    from .worker import run_round

    class SilentEcho(EchoDevice):
        def _on_ping(self, frame):
            pass

    monkeypatch.setattr(workloads, "STALL_PASSES", 50)
    workload = workloads.PingPongQueued(
        1, NullTracer(), tmp_path, echo_factory=SilentEcho
    )
    result = run_round(workload, 0.05, time.monotonic_ns())
    assert result["failed_ops"] >= 1
    assert any("Stalled" in p for p in result["problems"])


@pytest.mark.parametrize("var", ["REPRO_SANITIZE", "REPRO_AFFINITY"])
def test_refuses_an_instrumented_environment(var, monkeypatch, capsys):
    monkeypatch.setenv(var, "1")
    assert cli.main(["--quick"]) == 2
    assert var in capsys.readouterr().err
