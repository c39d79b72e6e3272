"""``python -m repro.diag``: one command, five projections.

``top`` is covered in ``tests/core/test_top.py``, ``timeline`` over
dumps in ``tests/flightrec/test_timeline.py`` and ``where`` over dumps
in ``tests/integration/test_post_mortem.py``; here: the live demo run
(``flame``, ``where``, ``timeline``), ``graph``, and the shape of the
CLI itself.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro import diag
from repro.diag import main
from repro.flightrec.dump import load_dumps

from tests.dataflow import fixtures

SRC = Path(diag.__file__).parent


class TestDemoRun:
    def test_flame_leaves_stacks_and_dumps_that_where_can_read(
        self, tmp_path, capsys
    ):
        stacks, dumps = tmp_path / "stacks.txt", tmp_path / "dumps"
        assert main(["flame", "--events", "20", "--out", str(stacks),
                     "--dumps", str(dumps)]) == 0
        out = capsys.readouterr().out
        assert "# events: fired=20 completed=20" in out
        assert "hot contexts" in out
        assert stacks.exists()
        assert [d.node for d in load_dumps([dumps])] == [0, 1, 2, 3]
        # The dumps-only path, as CI runs it on every push.
        assert main(["where", str(dumps)]) == 0
        out = capsys.readouterr().out
        assert "=== critical path: 20 trace(s) ===" in out
        assert "\nencode " in out and "\nwire " in out

    def test_where_on_the_live_demo_reports_encode_and_wire(self, capsys):
        assert main(["where", "--events", "10"]) == 0
        out = capsys.readouterr().out
        assert "# collector: 10 trace(s), missed_records=0" in out
        assert "=== critical path: 10 trace(s) ===" in out
        assert "params-sweep" not in out  # sweeps root no trace
        for segment in ("queue-wait", "dispatch", "encode", "wire"):
            count = re.search(rf"\n{segment} +(\d+)", out)
            assert count and int(count.group(1)) > 0, segment


    def test_timeline_on_the_live_demo_describes_the_mirrors(self, capsys):
        assert main(["timeline", "--events", "5"]) == 0
        out = capsys.readouterr().out
        assert "# collector: 5 trace(s), missed_records=0" in out
        assert "=== merged timeline: 4 dump(s), nodes [0, 1, 2, 3]" in out
        assert "in flight when" not in out  # dump-only lines


class TestGraph:
    def test_builtin_topologies_check_clean_and_render(self, tmp_path, capsys):
        dot, report = tmp_path / "dag.dot", tmp_path / "dag.json"
        assert main(["graph", "--builtin", "event-builder", "--check",
                     "--dot", str(dot), "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "== diagnostics (0) ==" in out and "clean" in out
        assert dot.read_text().startswith("digraph dataflow {")
        assert json.loads(report.read_text())["diagnostics"] == []
        assert main(["graph", "--builtin", "air-traffic", "--check"]) == 0

    def test_check_fails_on_a_diagnostic(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(fixtures.missing_consumer_spec()))
        assert main(["graph", str(spec)]) == 0  # a report is just a report
        assert "missing-consumer" in capsys.readouterr().out
        assert main(["graph", str(spec), "--check"]) == 1
        assert "dataflow check failed: 1" in capsys.readouterr().err

    def test_malformed_spec_is_refused_by_name(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"nodes": {"0": {"devices": 5}}}))
        with pytest.raises(SystemExit, match="graph: node 0: devices"):
            main(["graph", str(spec)])

    def test_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["graph"])
        with pytest.raises(SystemExit):
            main(["graph", "spec.json", "--builtin", "event-builder"])


class TestOneEntryPoint:
    def test_the_four_old_mains_are_gone(self):
        assert sorted(
            str(p.relative_to(SRC)) for p in SRC.rglob("__main__.py")
        ) == ["bench/__main__.py"]
        assert "def main" not in (SRC / "top.py").read_text()

    def test_option_budget(self):
        # ISSUE 16: 20 argparse options across four CLIs -> at most 12.
        options = re.findall(
            r'\b(?:arg|add_argument)\(\s*"(--[\w-]+)"',
            (SRC / "diag.py").read_text(),
        )
        assert 8 <= len(options) <= 12, options
