"""``python -m repro.diag`` — the one diagnostics command.

Every view here is a projection of what the cluster already records:
telemetry sweeps over ``UtilParamsGet`` (``top``), the per-node
flight-recorder rings, live or spilled (``timeline``, ``where``), the
sampling profiler (``flame``) and the devices' consumes/emits
declarations (``graph``).

Usage::

    python -m repro.diag top                    # live demo cluster
    python -m repro.diag top --json sweep.json  # a saved render_json() dump
    python -m repro.diag timeline crash/node003.flightrec   # decode one
    python -m repro.diag timeline crash/        # merge a directory of dumps
    python -m repro.diag timeline               # ... live, rings over I2O
    python -m repro.diag where crash/           # critical path from dumps
    python -m repro.diag where                  # ... live, rings over I2O
    python -m repro.diag flame --out stacks.txt --dumps crash/
    python -m repro.diag graph --builtin event-builder --check --dot dag.dot
    python -m repro.diag graph myspec.json --json report.json

The demo cluster is the 4-node traced event builder (trigger + EVM,
two readout units, one builder unit).  ``flame`` output feeds straight
into ``flamegraph.pl`` or any speedscope-compatible viewer.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any

# The builtin topologies' message types, registered by import: a
# dumps-only ``where`` has no cluster whose boot would have named them.
import repro.atc.protocol  # noqa: F401
import repro.daq.protocol  # noqa: F401
from repro.config.bootstrap import BootstrapError, Cluster, bootstrap
from repro.dataflow.examples import BUILTIN_SPECS, event_builder_spec
from repro.dataflow.graph import graph_from_spec
from repro.flightrec.dump import FlightDump, describe_dump, load_dumps
from repro.flightrec.records import FlightRecError
from repro.flightrec.timeline import MergedTimeline, in_flight_sends
from repro.profile.critical import CriticalPathAnalyzer
from repro.profile.sampler import context_label
from repro.top import COLUMNS, render

#: high for a profiler (the demo run is short)
DEMO_SAMPLER_HZ = 487.0
#: trigger self-drive period of the threaded demo run
DEMO_INTERVAL_NS = 2_000_000
#: ring records per node when the demo spills: a 200-event run fits
DEMO_RING = 65_536
#: rows in ``flame``'s hot-context table and ``where``'s slow-trace list
TOP_N = 10


def _demo_cluster(dumps: str | None = None) -> Cluster:
    spec = event_builder_spec(2, 1)
    observability: dict[str, Any] = {"hz": DEMO_SAMPLER_HZ}
    if dumps:
        observability.update(dir=dumps, capacity=DEMO_RING)
    spec["observability"] = observability
    return bootstrap(spec)


def _run_demo(events: int, dumps: str | None = None) -> Cluster:
    """Push ``events`` triggers through the demo cluster on native
    executive threads.  The trigger self-drives on the I2O timer, so
    every fire happens on node 0's loop thread — this thread only
    watches."""
    cluster = _demo_cluster(dumps)
    trigger: Any = cluster.device("trigger")
    evm: Any = cluster.device("evm")
    trigger.max_events = events
    trigger.parameters["interval_ns"] = str(DEMO_INTERVAL_NS)
    trigger.on_enable()
    cluster.start_all()
    try:
        deadline = time.monotonic() + 5.0 + 4 * events * DEMO_INTERVAL_NS / 1e9
        while evm.completed < events and time.monotonic() < deadline:
            time.sleep(0.002)
        trigger.on_quiesce()
    finally:
        cluster.stop_all()
    print(f"# events: fired={trigger.fired} completed={evm.completed}")
    return cluster


# -- top ----------------------------------------------------------------------
def _top(args: argparse.Namespace) -> int:
    if args.json:
        # A TelemetryCollector.render_json() dump, or a bare node map.
        with open(args.json, encoding="utf-8") as fh:
            data = json.load(fh)
        nodes = {int(n): m for n, m in data.get("nodes", data).items()}
        print(render(nodes, sort=args.sort))
        return 0
    cluster = _demo_cluster()
    trigger: Any = cluster.device("trigger")
    collector: Any = cluster.collector
    widths: list[int] = []
    frame = 0
    try:
        while True:
            trigger.fire_burst(25)
            cluster.pump()
            collector.sweep()
            cluster.pump()
            body = render(collector.node_metrics, sort=args.sort, widths=widths)
            frame += 1
            if sys.stdout.isatty():
                # ANSI: clear screen, home cursor — the top(1) refresh.
                sys.stdout.write("\x1b[2J\x1b[H")
            print(f"repro.diag top — demo cluster (refresh {frame})\n{body}",
                  flush=True)
            if args.frames and frame >= args.frames:
                return 0
            time.sleep(1.0)
    except KeyboardInterrupt:
        return 0


# -- timeline / where ---------------------------------------------------------
def _load_timeline(
    args: argparse.Namespace,
) -> tuple[list[FlightDump], MergedTimeline]:
    """The named dumps and their merge; with none named, no dumps and
    the live demo's timeline: one sweep pulls every ring over
    ``UtilParamsGet`` into the collector's mirrors."""
    if args.dumps:
        dumps = load_dumps(args.dumps)
        return dumps, MergedTimeline(dumps)
    cluster = _run_demo(args.events)
    collector: Any = cluster.collector
    collector.sweep()
    cluster.pump()
    counters = collector.export_counters()
    print(f"# collector: {counters['traces']} trace(s), "
          f"missed_records={counters['missed_records']}")
    return [], collector.merged()


def _timeline(args: argparse.Namespace) -> int:
    dumps, merged = _load_timeline(args)
    if len(dumps) == 1:
        print(describe_dump(dumps[0]))
    else:
        print(merged.describe())
    for dump in dumps:
        pending = in_flight_sends(dump)
        if pending:
            seqs = ", ".join(str(record.a) for record in pending)
            print(
                f"in flight when node {dump.node} spilled "
                f"({dump.reason!r}): rel seq(s) {seqs}"
            )
    return 0


def _where(args: argparse.Namespace) -> int:
    _, merged = _load_timeline(args)
    analyzer = CriticalPathAnalyzer(merged)
    paths = analyzer.paths()
    print(analyzer.report(paths, top=TOP_N))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(analyzer.to_json(paths))
        print(f"# critical-path JSON -> {args.json}")
    return 0 if paths else 1


# -- flame --------------------------------------------------------------------
def _flame(args: argparse.Namespace) -> int:
    cluster = _run_demo(args.events, args.dumps)
    profiler = cluster.profiler
    print(f"# samples: {sum(profiler.node_samples.values())} over "
          f"{profiler.ticks} tick(s) at {DEMO_SAMPLER_HZ:g} Hz")
    collapsed = profiler.collapsed()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(collapsed) + "\n")
        print(f"# collapsed stacks: {len(collapsed)} -> {args.out}")
    else:
        print(f"# --- collapsed stacks ({len(collapsed)}) ---")
        print("\n".join(collapsed))
    print(f"# --- top {TOP_N} hot contexts ---")
    for node, ctx, count in profiler.hot_contexts(TOP_N):
        print(f"{count:>8}  node{node}  {context_label(ctx)}")
    if args.dumps:
        for recorder in cluster.flight_recorders.values():
            recorder.spill("diag-flame")
        print(f"# flight-recorder dumps -> {args.dumps}")
    evm: Any = cluster.device("evm")
    return 0 if evm.completed else 1


# -- graph --------------------------------------------------------------------
def _graph(args: argparse.Namespace) -> int:
    if (args.spec is None) == (args.builtin is None):
        raise SystemExit("graph: choose exactly one source: a spec file "
                         "or --builtin")
    if args.builtin:
        spec = BUILTIN_SPECS[args.builtin]()
    else:
        with open(args.spec, encoding="utf-8") as fh:
            spec = json.load(fh)
    try:
        graph = graph_from_spec(spec)
    except BootstrapError as exc:
        raise SystemExit(f"graph: {exc}") from exc
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.to_dot() + "\n")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(graph.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(graph.describe())
    diagnostics = graph.analyze()
    if args.check and diagnostics:
        print(f"dataflow check failed: {len(diagnostics)} diagnostic(s)",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.diag", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    demo_run = argparse.ArgumentParser(add_help=False)
    demo_run.add_argument("--events", type=int, default=200,
                          help="events the demo run pushes through")

    def command(name: str, run: Any, help: str, **kwargs: Any) -> Any:
        cmd = sub.add_parser(name, help=help, **kwargs)
        cmd.set_defaults(run=run)
        return cmd.add_argument

    arg = command("top", _top, "per-node table over telemetry sweeps")
    arg("--json", metavar="FILE",
        help="render a saved collector dump, not the live demo cluster")
    arg("--frames", type=int, default=0,
        help="stop after N refreshes (0 = until ^C)")
    arg("--sort", metavar="COL", choices=[c.lower() for c in COLUMNS],
        help="order rows by a column (descending; 'node' ascending)")
    arg = command("timeline", _timeline,
                  "decode one dump, or merge several: gaps, in-flight sends",
                  parents=[demo_run])
    arg("dumps", nargs="*",
        help=".flightrec files or directories (none = a live demo run)")
    arg = command("where", _where, "where each traced frame's time went",
                  parents=[demo_run])
    arg("dumps", nargs="*",
        help=".flightrec files or directories (none = a live demo run)")
    arg("--json", metavar="FILE", help="write the critical-path JSON here")
    arg = command("flame", _flame, "profile the demo run: collapsed stacks",
                  parents=[demo_run])
    arg("--out", metavar="FILE", help="collapsed stacks (default stdout)")
    arg("--dumps", metavar="DIR", help="spill every node's ring here")
    arg = command("graph", _graph, "render or check a spec's dataflow DAG")
    arg("spec", nargs="?", help="bootstrap spec as JSON")
    arg("--builtin", choices=sorted(BUILTIN_SPECS),
        help="a canonical built-in topology instead")
    arg("--dot", metavar="FILE", help="write GraphViz here")
    arg("--json", metavar="FILE", help="write the machine-readable report")
    arg("--check", action="store_true", help="exit 1 on any diagnostic")
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (FlightRecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
