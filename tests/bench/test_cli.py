"""The xdaq-bench CLI."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.bench import __main__ as cli
from repro.bench.__main__ import EXPERIMENTS, main
from repro.bench.overhead import ARMS, GATES, OverheadResult, run_overhead

DESIGN = Path(__file__).parents[2] / "DESIGN.md"


def test_experiment_registry_covers_design_index():
    """DESIGN §4's "Regenerate with" column and the CLI's registry name
    exactly the same experiment ids."""
    section = DESIGN.read_text(encoding="utf-8").split(
        "## 4. Per-experiment index"
    )[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    regenerate = [row.split("|")[-2] for row in rows[1:]]
    ids = {
        exp_id
        for cell in regenerate
        for exp_id in re.findall(r"python -m repro\.bench (\w+)", cell)
    }
    assert len(regenerate) >= 16  # F6 T1 A1 A2 B1 X1-X11
    assert ids == set(EXPERIMENTS)


def test_cli_runs_one_experiment(capsys):
    assert main(["tab1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "frameAlloc" in out
    assert "done in" in out


def _overhead_result(off_over_floor: float) -> OverheadResult:
    ns: dict[str, dict[str, float]] = {}
    for arm in ARMS:
        ns.setdefault(arm.load, {})[arm.name] = 1000.0
    ns["drain"]["off"] = 1000.0 * off_over_floor
    # Keep recording/off at 1.0 so only the gate under test can trip.
    ns["drain"]["recording"] = ns["drain"]["off"]
    # One batch: each arm's only reading.
    return OverheadResult(batches={
        load: {name: [value] for name, value in arms.items()}
        for load, arms in ns.items()
    })


def test_gate_trips_when_exceeded(monkeypatch, capsys):
    """The gate is a pure function of the result; ``--gate`` turns a
    violation into exit status 1."""
    assert [limit for *_, limit in GATES] == [1.25, 2.0, 1.5]
    assert _overhead_result(1.2).violations() == []
    (violation,) = _overhead_result(1.3).violations()
    assert "off/floor" in violation and "1.25" in violation
    for ratio, code in ((1.2, 0), (1.3, 1)):
        monkeypatch.setitem(
            EXPERIMENTS, "overhead",
            ("synthetic", lambda ratio=ratio: _overhead_result(ratio)),
        )
        assert main(["overhead", "--gate"]) == code
        assert ("GATE VIOLATION" in capsys.readouterr().err) == bool(code)
        assert main(["overhead"]) == 0  # ungated, a report is just a report


def test_ungated_result_never_violates():
    class Plain:
        def report(self) -> str:
            return ""

    assert cli.violations(Plain()) == []


def test_overhead_smoke(monkeypatch, capsys):
    """``main(["overhead"])`` end to end, at tiny size."""
    monkeypatch.setitem(
        EXPERIMENTS, "overhead",
        ("tiny", lambda: run_overhead(messages=200, rounds=20, batches=1)),
    )
    assert main(["overhead"]) == 0
    out = capsys.readouterr().out
    assert "X6/X9" in out and "X11" in out and "gates:" in out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    for gone in ("telemetry", "flightrec", "profile"):
        assert gone not in EXPERIMENTS


def test_report_formatting():
    from repro.bench.report import format_table

    table = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert lines[1].split() == ["a", "bb"]
    # Right-aligned columns line up.
    assert lines[4].index("333") < lines[4].index("4")


def test_format_table_empty_rows():
    from repro.bench.report import format_table

    table = format_table(["col"], [])
    assert "col" in table
