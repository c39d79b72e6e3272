"""A dead cluster's dumps answer "where did this frame's time go".

The flight-recorder ring is the only per-node store of frame-lifecycle
facts, so everything the live collector could report about a trace is
still on disk after every node is gone: boot the traced event builder,
drive events, ``hard_stop`` every node, then rebuild hops and critical
paths from the dump directory alone.
"""

from __future__ import annotations

import json

from repro.config.bootstrap import bootstrap
from repro.daq.protocol import XF_TRIGGER
from repro.dataflow.examples import event_builder_spec
from repro.diag import main
from repro.flightrec.dump import load_dumps
from repro.flightrec.timeline import MergedTimeline
from repro.profile.critical import ADDITIVE_SEGMENTS, CriticalPathAnalyzer

EVENTS = 5


def _run_and_kill(dump_dir):
    """Returns what the live collector knew of each event's trace."""
    spec = event_builder_spec(2, 1)
    spec["observability"] = {"dir": str(dump_dir)}
    cluster = bootstrap(spec)
    cluster.device("trigger").fire_burst(EVENTS)
    cluster.pump()
    assert cluster.device("evm").completed == EVENTS
    collector = cluster.collector
    collector.sweep()
    cluster.pump()
    # The event traces only: the sweep's own trace was still being
    # dispatched while the agents answered it.
    mirrored = collector.merged()
    live = {
        trace_id: mirrored.hops(trace_id)
        for trace_id in mirrored.trace_ids()
        if any(h.xfunction == XF_TRIGGER for h in mirrored.hops(trace_id))
    }
    assert len(live) == EVENTS
    for exe in cluster.executives.values():
        exe.hard_stop()
    return live


def test_critical_path_from_dumps_alone(tmp_path):
    live = _run_and_kill(tmp_path)

    dumps = load_dumps([tmp_path])
    assert [d.node for d in dumps] == [0, 1, 2, 3]
    assert {d.reason for d in dumps} == {"hard_stop"}
    merged = MergedTimeline(dumps)
    assert set(live) <= set(merged.trace_ids())
    analyzer = CriticalPathAnalyzer(merged)
    for trace_id, live_hops in live.items():
        # One projection, two consumers: the dumps give back exactly
        # the hops the collector was told over UtilParamsGet.
        hops = merged.hops(trace_id)
        assert hops == live_hops
        path = analyzer.path(trace_id)
        assert [h.hop for h in path.hops] == hops
        # The additive segments partition the lifetime exactly.
        lifetime = max(h.start_ns + h.dispatch_ns for h in hops) - (
            hops[0].start_ns - hops[0].queue_wait_ns
        )
        assert path.total_ns == lifetime
        assert sum(
            h.segments.get(s, 0) for h in path.hops for s in ADDITIVE_SEGMENTS
        ) == lifetime
        # trigger -> EVM is node-local; every later hop crossed the
        # wire, and the dumps say when it was sent and when it landed.
        assert "encode" not in path.hops[0].segments
        for hop in path.hops[1:]:
            assert {"encode", "wire"} <= set(hop.segments), hop
        assert any(h.segments["wire"] > 0 for h in path.hops[1:])
    stats = analyzer.segment_quantiles(analyzer.paths())
    assert stats["encode"]["count"] == stats["wire"]["count"] > 0


def test_where_cli_over_a_dump_directory(tmp_path, capsys):
    live = _run_and_kill(tmp_path / "crash")
    report = tmp_path / "critical.json"
    assert main(["where", str(tmp_path / "crash"), "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "=== critical path:" in out
    for segment in ("queue-wait", "dispatch", "encode", "wire"):
        assert f"\n{segment} " in out
    assert "daq.readout" in out  # message types named with no cluster up
    blob = json.loads(report.read_text())
    assert {format(t, "x") for t in live} <= {
        t["trace_id"] for t in blob["traces"]
    }
    assert blob["segments"]["wire"]["count"] > 0


def test_where_cli_with_nothing_to_say(tmp_path, capsys):
    assert main(["where", str(tmp_path / "absent")]) == 2
    assert "error:" in capsys.readouterr().err
    (tmp_path / "empty").mkdir()
    assert main(["where", str(tmp_path / "empty")]) == 1  # no traces
