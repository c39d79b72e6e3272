"""The repro.top console: the columns it reads and its rendering."""

from __future__ import annotations

import json

import pytest

from repro.diag import main
from repro.top import COLUMNS, hot_ratio, node_row, render


def _metrics_with_latency(**extra):
    """A node snapshot with the dispatch percentiles the collector
    derives from the node's mirrored ring."""
    base = {"exe_dispatch_ns_p50": 10_000, "exe_dispatch_ns_p99": 100_000}
    base.update(extra)
    return base


class TestDispatchQuantile:
    def test_no_observations_is_none(self):
        # A node with no recorder (or no dispatch in its ring yet) sends
        # no percentile: the column reads nothing, it does not read 0.
        row = node_row(0, {"exe_dispatched_total": 4})
        assert row[COLUMNS.index("P50")] == row[COLUMNS.index("P99")] == "-"


class TestHotColumn:
    def test_ratio_from_profiler_gauges(self):
        metrics = _metrics_with_latency(
            prof_samples_total=200, prof_busy_samples_total=50
        )
        assert hot_ratio(metrics) == 0.25
        assert node_row(0, metrics)[COLUMNS.index("HOT")] == "25%"

    def test_no_samples_renders_dash(self):
        assert hot_ratio(_metrics_with_latency()) is None
        assert node_row(0, _metrics_with_latency())[COLUMNS.index("HOT")] == "-"


class TestSort:
    def _metrics(self):
        return {
            0: _metrics_with_latency(exe_dispatched_total=10,
                                     prof_samples_total=100,
                                     prof_busy_samples_total=90),
            1: _metrics_with_latency(exe_dispatched_total=30),
            2: _metrics_with_latency(exe_dispatched_total=20,
                                     prof_samples_total=100,
                                     prof_busy_samples_total=10),
        }

    def _order(self, text):
        return [line.split()[0] for line in text.splitlines()[1:-1]]

    def test_sort_disp_descends_by_numeric_value(self):
        assert self._order(render(self._metrics(), sort="disp")) == \
            ["1", "2", "0"]

    def test_sort_hot_puts_unsampled_nodes_last(self):
        assert self._order(render(self._metrics(), sort="hot")) == \
            ["0", "2", "1"]

    def test_sort_node_ascends(self):
        assert self._order(render(self._metrics(), sort="node")) == \
            ["0", "1", "2"]

    def test_unknown_column_raises(self):
        with pytest.raises(ValueError, match="unknown sort column"):
            render(self._metrics(), sort="bogus")


class TestWidthPersistence:
    def test_widths_only_grow_between_frames(self):
        widths: list[int] = []
        render({0: {"exe_dispatched_total": 9_999_999}}, widths=widths)
        wide = list(widths)
        # Counter resets / node churn must not shrink any column.
        render({0: {"exe_dispatched_total": 1}}, widths=widths)
        assert widths == wide
        first = render({0: {"exe_dispatched_total": 9_999_999}})
        again = render({0: {"exe_dispatched_total": 1}}, widths=wide)
        assert len(again.splitlines()[0]) == len(first.splitlines()[0])


class TestNodeRow:
    def test_row_matches_columns(self):
        row = node_row(3, _metrics_with_latency())
        assert len(row) == len(COLUMNS)
        assert row[0] == "3"

    def test_down_is_deaths_minus_rejoins(self):
        metrics = _metrics_with_latency(
            peer_deaths_total=3, peer_rejoins_total=1
        )
        row = node_row(0, metrics)
        assert row[COLUMNS.index("DOWN")] == "2"

    def test_rejoins_never_go_negative(self):
        metrics = _metrics_with_latency(
            peer_deaths_total=1, peer_rejoins_total=4
        )
        assert node_row(0, metrics)[COLUMNS.index("DOWN")] == "0"

    def test_journal_and_copies_summed_across_devices(self):
        metrics = _metrics_with_latency(**{
            "rel_a_journal_depth": 2,
            "rel_b_journal_depth": 3,
            "pt_loop_tx_copies": 4,
            "pt_loop_rx_copies": 5,
        })
        row = node_row(0, metrics)
        assert row[COLUMNS.index("JRNL")] == "5"
        assert row[COLUMNS.index("COPIES")] == "9"

    def test_shed_column_reads_dataflow_counter(self):
        metrics = _metrics_with_latency(dataflow_shed_total=7)
        assert node_row(0, metrics)[COLUMNS.index("SHED")] == "7"

    def test_shed_column_defaults_to_zero(self):
        assert node_row(0, _metrics_with_latency())[COLUMNS.index("SHED")] == "0"

    def test_latency_columns_humanised(self):
        row = node_row(0, _metrics_with_latency())
        assert row[COLUMNS.index("P50")] == "10us"
        assert row[COLUMNS.index("P99")] == "100us"


class TestRender:
    def test_table_has_header_rows_and_summary(self):
        text = render({
            0: _metrics_with_latency(exe_dispatched_total=100),
            1: _metrics_with_latency(exe_dispatched_total=50),
        })
        lines = text.splitlines()
        assert lines[0].split() == list(COLUMNS)
        assert len(lines) == 4  # header + 2 nodes + summary
        assert "2 node(s)" in lines[-1]
        assert "150 dispatched" in lines[-1]

    def test_nodes_sorted(self):
        text = render({5: {}, 1: {}, 3: {}})
        first_cells = [
            line.split()[0] for line in text.splitlines()[1:-1]
        ]
        assert first_cells == ["1", "3", "5"]


class TestCli:
    def test_json_source_renders_a_collector_dump(self, tmp_path, capsys):
        dump = {
            "nodes": {
                "0": _metrics_with_latency(exe_dispatched_total=7),
                "1": {"exe_dispatched_total": 2},
            },
            "totals": {},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dump))
        assert main(["top", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "NODE" in out
        assert "9 dispatched cluster-wide" in out

    def test_bare_node_map_also_accepted(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"2": {"exe_dispatched_total": 1}}))
        assert main(["top", "--json", str(path)]) == 0
        assert "1 node(s)" in capsys.readouterr().out

    def test_demo_once_runs_a_real_cluster(self, capsys):
        assert main(["top", "--frames", "1"]) == 0
        out = capsys.readouterr().out
        assert "NODE" in out
        assert "\x1b[" not in out  # screen control only on a tty
        # The demo is the 4-node event builder, 25 events per refresh.
        assert "4 node(s)" in out
        assert "275 dispatched cluster-wide" in out

    def test_source_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])  # a subcommand is required
        with pytest.raises(SystemExit):
            main(["top", "--demo"])  # dropped with the old entry point
