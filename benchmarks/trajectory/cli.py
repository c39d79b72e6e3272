"""The benchmark's front door: rounds, medians, self-check, output.

One *run* is ``ROUNDS`` rounds; in each round every selected workload
executes once, in the fixed order of ``BENCHMARK.json``, each in a
fresh interpreter, so machine noise spreads over the workloads instead
of landing on one.  ``setup_s`` and ``peak_rss_mb`` are the median over
the rounds; the timed metrics are read off the quiet quarter of the
run's 100 ms slices (see ``summarise``); min and max over the rounds
are kept beside every value.

``--workload W --seed N --seconds S --trace 0|1`` is the form the
regression driver uses: it runs one workload and ends with one JSON
line — every end-to-end metric untraced, every per-layer metric
traced.  Without ``--workload`` all five run and a table is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any

from .layers import LAYER_MOVES, OUT_DIR, ROOT, layer_table, load_spec

ROUNDS = 5
QUICK_ROUNDS = 3
#: ``--quick`` shrinks every timed segment and micro batch by this.
QUICK_FACTOR = 50
MICRO_CALLS = 1000
MICRO_BATCHES = 31
#: A round that has not reported by then is hung, not slow.
WORKER_TIMEOUT_S = 150


class WorkerCrashed(RuntimeError):
    """A workload process died without reporting a result."""


def refuse_reason() -> str | None:
    """Why this environment cannot produce comparable numbers.  (The
    other refusal — more workload threads than cores — is the
    worker's, which knows the workload.)"""
    for var in ("REPRO_SANITIZE", "REPRO_AFFINITY"):
        if os.environ.get(var):
            return (
                f"{var} is set: the sanitizer and the affinity guard change "
                f"what every frame costs; unset it to benchmark"
            )
    return None


def spawn(mode: str, **options: Any) -> dict[str, Any]:
    """Run one worker process; its result is its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [sys.executable, "-m", "benchmarks.trajectory.worker", mode]
    for key, value in options.items():
        command += [f"--{key.replace('_', '-')}", str(value)]
    if mode == "round":
        # Last thing before the spawn: ``setup_s`` starts here.
        command += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerCrashed(
            f"{' '.join(command[2:])} exited {proc.returncode}:\n"
            f"{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def provenance(
    seed: int, per_round: float, rounds: int, workloads: list[str]
) -> dict[str, Any]:
    """What a result must carry to be compared later.  Each round's own
    record adds the workload's loop type, window, payload and the
    operations it measured."""
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "seed": seed,
        "rounds": rounds,
        "seconds_per_round": per_round,
        "workloads": workloads,
    }


def _commit() -> str:
    """HEAD's hash read from ``.git`` directly (the regression driver's
    checkout is not a repository, and a ``git`` child would search
    parent directories outside it)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="ascii").strip()
        return head
    except OSError:
        return "unknown"


#: ``SpeedProbe``'s first-quartile reading on the sizing host in a
#: quiet period.  Timed metrics are scaled to this speed, so there a
#: quiet core reads true microseconds; on another host every reading is
#: off by one constant factor, the same for every commit measured on it.
PROBE_REFERENCE_US = 960.0

#: end-to-end metric -> the per-slice series it is built from
TIMED = {
    "rtt_us_p50": "rtt_us_p50",
    "ops_per_s": "wall_us_per_op",
    "cpu_us_per_op": "cpu_us_per_op",
}


def first_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def summarise(name: str, rounds: list[dict[str, Any]]) -> dict[str, float]:
    """One end-to-end metric of one workload over a run's rounds.

    ``setup_s`` and ``peak_rss_mb`` are one number per round: the value
    is their median.

    The timed metrics are read off the quiet quarter of the run.  The
    sizing host hands the core to a neighbour in millisecond bursts
    whose density drifts over seconds and minutes, and inside a burst
    everything runs 1.4-1.8x slower; that noise only ever adds cost.
    Each round therefore measures its segment in 100 ms slices with a
    1 ms speed probe between slices, and the value is the first
    quartile of all the run's slice costs — a mean or a median over
    the segment reads the neighbours instead — scaled by the reference
    probe time over the first quartile of all the run's probe
    readings, which is 1 unless even the quiet quarter of the run was
    slow, and then corrects about half of it (the probe is not the
    workload).  The uncorrected readings stay in each round's
    ``metrics`` and ``slices``.  ``min``/``max`` are over the rounds,
    each read the same way from its own slices.
    """
    if name not in TIMED:
        per_round = [r["metrics"][name] for r in rounds]
        return {"median": statistics.median(per_round),
                "min": min(per_round), "max": max(per_round)}

    def quiet(some: list[dict[str, Any]]) -> float:
        costs = [v for r in some for v in r["slices"][TIMED[name]]]
        if not costs:
            # A segment too short to close one slice with a completed
            # operation in it (only ``--quick`` on a slow day): fall
            # back to the whole-segment readings.
            return statistics.median(r["metrics"][name] for r in some)
        cost = first_quartile(costs) * PROBE_REFERENCE_US / first_quartile(
            [p for r in some for p in r["slices"]["probe_us"]]
        )
        return 1e6 / cost if name == "ops_per_s" else cost

    per_round = [quiet([r]) for r in rounds]
    return {"median": quiet(rounds),
            "min": min(per_round), "max": max(per_round)}


def run_once(
    workloads: list[str], seed: int, per_round: float, rounds: int,
    trace: bool, quick: bool,
) -> dict[str, Any]:
    """One run: ``rounds`` interleaved untraced rounds of ``per_round``
    seconds, then (traced) one traced round per workload and the micro
    suite."""
    spec = load_spec()
    record = provenance(seed, per_round, rounds, workloads)
    raw: dict[str, list[dict[str, Any]]] = {name: [] for name in workloads}
    for _ in range(rounds):
        for name in workloads:
            raw[name].append(
                spawn("round", workload=name, seed=seed, seconds=per_round)
            )
    micro = None
    if trace:
        micro = spawn(
            "micro", seed=seed,
            calls=MICRO_CALLS // (10 if quick else 1),
            batches=MICRO_BATCHES // (6 if quick else 1),
        )
    results = {}
    for name in workloads:
        good = [r for r in raw[name] if "metrics" in r]
        result: dict[str, Any] = {
            "ops": sum(r["ops"] for r in raw[name]),
            "failed_ops": sum(r["failed_ops"] for r in raw[name]),
            "problems": sorted({p for r in raw[name] for p in r["problems"]}),
            "rounds": raw[name],
            "end_to_end": {
                metric["name"]: summarise(metric["name"], good)
                for metric in spec["end_to_end"] if good
            },
        }
        if trace and good:
            traced = spawn(
                "round", workload=name, seed=seed, seconds=per_round, traced=1
            )
            result["traced_round"] = traced
            result["per_layer"] = per_layer(spec, good, traced, micro)
        results[name] = result
    return {"provenance": record, "micro": micro, "workloads": results}


def per_layer(
    spec: dict[str, Any], untraced: list[dict[str, Any]],
    traced: dict[str, Any], micro: dict[str, Any] | None,
) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``.

    Counts come from the traced round; the driver's own latency tail
    and probe from the last untraced one; timings from the micro
    suite.  A layer that is not on this workload's path reads 0.
    """
    layers = dict.fromkeys(LAYER_MOVES, 0.0)
    if "layers" in traced:
        layers.update(traced["layers"])
        layers["driver.trace_overhead_ratio"] = (
            summarise("ops_per_s", untraced)["median"]
            / summarise("ops_per_s", [traced])["median"]
        )
    last = untraced[-1]
    for key in ("driver.rtt_us_p99", "driver.rtt_us_max"):
        layers[key] = last["layers"][key]
    # What the machine was doing: the uncorrected median latency of the
    # last untraced segment and the probe reading it was corrected by.
    layers["driver.raw_rtt_us_p50"] = last["metrics"]["rtt_us_p50"]
    layers["driver.probe_us"] = first_quartile(last["slices"]["probe_us"])
    if micro is not None:
        layers.update(micro["layers"])
    names = [metric["name"] for metric in spec["per_layer"]]
    if set(names) != set(layers):
        raise RuntimeError(
            "per-layer metrics out of step with BENCHMARK.json: "
            f"{sorted(set(names) ^ set(layers))}"
        )
    return {name: layers[name] for name in names}


def driver_line(
    spec: dict[str, Any], result: dict[str, Any], trace: bool
) -> dict[str, Any]:
    """The regression driver's result object for one workload."""
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result.get("per_layer", {})
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {k: v["median"] for k, v in result["end_to_end"].items()}
    traced = result.get("traced_round", {})
    failed = result["failed_ops"] + traced.get("failed_ops", 0)
    return {
        "correct": failed == 0 and set(values) == set(units),
        "attempted": result["ops"] + traced.get("ops", 0),
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units if name in values
        },
    }


def print_table(spec: dict[str, Any], run: dict[str, Any]) -> None:
    prov = run["provenance"]
    print(
        f"# commit {prov['commit'][:12]}  python {prov['python']}  "
        f"nproc {prov['nproc']}  load {prov['loadavg_1m_at_start']:.2f}  "
        f"seed {prov['seed']}  {prov['rounds']} rounds x "
        f"{prov['seconds_per_round']:.3f} s"
    )
    for name, result in run["workloads"].items():
        print(
            f"\n{name}: {result['ops']} ops, {result['failed_ops']} failed"
            + "".join(f"\n  ! {p}" for p in result["problems"])
        )
        for metric in spec["end_to_end"]:
            value = result["end_to_end"].get(metric["name"])
            if value is not None:
                print(
                    f"  {metric['name']:<16}{value['median']:>14.4f} "
                    f"{metric['unit']:<5} [{value['min']:.4f} .. "
                    f"{value['max']:.4f}]"
                )
        for key, value in result.get("per_layer", {}).items():
            print(f"    {key:<42}{value:>14.4f}")


def selfcheck(spec: dict[str, Any], first: dict[str, Any],
              second: dict[str, Any]) -> bool:
    """Two runs of the same code must agree within each metric's bound."""
    agree = True
    print("\nselfcheck: run 1 vs run 2 (median [min .. max])")
    for name in first["workloads"]:
        for metric in spec["end_to_end"]:
            a = first["workloads"][name]["end_to_end"].get(metric["name"])
            b = second["workloads"][name]["end_to_end"].get(metric["name"])
            if a is None or b is None:
                agree = False
                continue
            diff = abs(b["median"] - a["median"]) / a["median"]
            ok = diff <= metric["bound"]
            agree &= ok
            print(
                f"  {name:<16}{metric['name']:<14}"
                f"{a['median']:>12.4f} [{a['min']:.4f} .. {a['max']:.4f}]"
                f"{b['median']:>12.4f} [{b['min']:.4f} .. {b['max']:.4f}]"
                f"  diff {diff:6.2%}  bound {metric['bound']:.0%}  "
                f"{'ok' if ok else 'DISAGREE'}"
            )
    return agree


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.trajectory", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names,
                        help="run one workload and end with the driver's "
                             "JSON line (default: all, as a table)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed seconds per workload per run, split "
                             "over the rounds")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="add a traced round per workload, the micro "
                             "suite and out/trace_<workload>.json")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke run: segments {QUICK_FACTOR}x shorter, "
                             f"{QUICK_ROUNDS} rounds")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two runs back to back; non-zero exit if any "
                             "end-to-end median moves more than its bound")
    parser.add_argument("--layer-table", action="store_true",
                        help="print the README's layer table and exit")
    args = parser.parse_args(argv)

    if args.layer_table:
        print(layer_table(spec))
        return 0
    workloads = [args.workload] if args.workload else names
    reason = refuse_reason()
    if reason is not None:
        print(f"refusing to run: {reason}", file=sys.stderr)
        return 2
    per_round = args.seconds / ROUNDS / (QUICK_FACTOR if args.quick else 1)
    trace = bool(args.trace)
    if args.workload and trace:
        # The driver's traced form reports per-layer metrics only: one
        # untraced round (for the tracing overhead) is enough.
        rounds = 1
    else:
        rounds = QUICK_ROUNDS if args.quick else ROUNDS

    try:
        run = run_once(
            workloads, args.seed, per_round, rounds, trace, args.quick
        )
        second = (
            run_once(workloads, args.seed, per_round, rounds, False, args.quick)
            if args.selfcheck else None
        )
    except WorkerCrashed as exc:
        print(exc, file=sys.stderr)
        return 3

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = f"_{args.workload}" if args.workload else ""
    with open(OUT_DIR / f"result{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=1)

    print_table(spec, run)
    status = 0
    if second is not None and not selfcheck(spec, run, second):
        status = 1
    if args.workload:
        print(json.dumps(driver_line(spec, run["workloads"][args.workload], trace)))
    return status
