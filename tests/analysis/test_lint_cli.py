"""The ``python -m tools.lint`` entry point end to end."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tools.lint.__main__ import main

ROOT = Path(__file__).parents[2]
FIXTURES = ROOT / "tests" / "analysis" / "fixtures"
#: seeded fixture -> the rules it must fire, exactly
FIXTURE_RULES = {
    "seeded_violations": ["OWN001", "OWN002", "OWN003"],
    # helper-mediated bugs: only the ownership summaries see these
    "seeded_interproc": ["OWN001", "OWN002", "OWN003"],
    "seeded_races": ["RACE001", "RACE002"],
    # an executive part reached as exe.routes from an rx thread
    "seeded_routes": ["RACE001"],
    # the sampler thread gets no stat-counter pass
    "seeded_sampler": ["RACE001", "RACE002"],
}

CLEAN = "def f(pool):\n    block = pool.alloc(4)\n    block.release()\n"
LEAKY = "def f(pool):\n    block = pool.alloc(4)\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        assert main([write(tmp_path, "ok.py", CLEAN)]) == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        assert main([write(tmp_path, "bad.py", LEAKY)]) == 1
        out = capsys.readouterr().out
        assert "OWN002" in out and "1 new" in out

    def test_parse_error_exits_two(self, tmp_path):
        assert main([write(tmp_path, "bad.py", "def f(:\n")]) == 2

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, capsys):
        (tmp_path / "latin1.py").write_bytes(b"NAME = '\xe9t\xe9'\n")
        write(tmp_path, "ok.py", CLEAN)
        assert main([str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "latin1.py: not UTF-8" in captured.err
        assert "2 files" in captured.out

    def test_nul_byte_is_a_parse_error(self, tmp_path, capsys):
        # ValueError on Python 3.10, SyntaxError on newer: both exit 2.
        (tmp_path / "nul.py").write_bytes(b"x = 1\x00\n")
        write(tmp_path, "ok.py", CLEAN)
        assert main([str(tmp_path), "--jobs", "1"]) == 2
        assert "nul.py" in capsys.readouterr().err


class TestOutput:
    def test_json_format(self, tmp_path, capsys):
        main([write(tmp_path, "bad.py", LEAKY), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["new"] == 1
        assert doc["violations"][0]["rule"] == "OWN002"

    def test_out_file_artifact(self, tmp_path):
        out = tmp_path / "report.json"
        main([write(tmp_path, "bad.py", LEAKY), "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["summary"]["findings"] == 1

    def test_rules_listing(self, capsys):
        assert main(["--rules", "unused"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == ["OWN001", "OWN002", "OWN003", "RACE001", "RACE002"]


class TestExpectGate:
    def test_expect_satisfied(self, tmp_path):
        assert main([write(tmp_path, "bad.py", LEAKY),
                     "--expect", "OWN002"]) == 0

    def test_expect_missing_fails(self, tmp_path):
        assert main([write(tmp_path, "ok.py", CLEAN),
                     "--expect", "OWN001"]) == 1


class TestSeededFixtures:
    @pytest.mark.parametrize("fixture", list(FIXTURE_RULES))
    def test_fixtures_detected(self, fixture, capsys):
        """The seeded bugs must keep tripping their rules, and only
        those rules."""
        expected = FIXTURE_RULES[fixture]
        path = str(FIXTURES / f"{fixture}.py")
        argv = [path, "--no-default-excludes", "--format", "json"]
        expects = [arg for rule in expected for arg in ("--expect", rule)]
        assert main(argv + expects) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted({v["rule"] for v in doc["violations"]}) == expected

    def test_fixtures_excluded_by_default(self, capsys):
        assert main(["tests/analysis/fixtures"]) == 0
        assert "0 files" in capsys.readouterr().out

    def test_fixtures_excluded_by_absolute_path(self, capsys):
        assert main([str(FIXTURES.resolve())]) == 0
        assert "0 files" in capsys.readouterr().out

    def test_checked_in_tree_is_clean(self, capsys):
        """Every tree the repo ships or runs lints clean, with no
        baseline: a finding is fixed or carries a noqa."""
        paths = [str(ROOT / d) for d in ("src", "tests", "examples", "tools")]
        assert main(paths) == 0, capsys.readouterr().out


class TestParallelJobs:
    def seed_tree(self, tmp_path):
        # Enough files to cross the pool threshold, plus an
        # interprocedural bug a summary-blind per-file pass would miss.
        write(tmp_path, "ok1.py", CLEAN)
        write(tmp_path, "ok2.py", CLEAN.replace("def f", "def g"))
        write(tmp_path, "ok3.py", CLEAN.replace("def f", "def h"))
        write(tmp_path, "ok4.py", CLEAN.replace("def f", "def i"))
        return write(
            tmp_path, "bad.py",
            "def drop(frame):\n"
            "    frame.release()\n"
            "def f(pool):\n"
            "    frame = pool.alloc(4)\n"
            "    drop(frame)\n"
            "    frame.release()\n",
        )

    def test_jobs_match_serial(self, tmp_path, capsys):
        self.seed_tree(tmp_path)

        def findings(jobs):
            code = main([str(tmp_path), "--format", "json", "--jobs", jobs])
            doc = json.loads(capsys.readouterr().out)
            rendered = sorted(
                (v["path"].rsplit("/", 1)[-1], v["line"], v["rule"])
                for v in doc["violations"]
            )
            return code, rendered

        serial = findings("1")
        parallel = findings("4")
        assert serial == parallel
        assert serial[0] == 1
        assert ("bad.py", 6, "OWN003") in serial[1]

    def test_jobs_zero_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main([write(tmp_path, "ok.py", CLEAN), "--jobs", "0"])
