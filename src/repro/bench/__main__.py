"""CLI: regenerate any (or every) experiment from DESIGN.md §4.

Usage::

    python -m repro.bench fig6
    python -m repro.bench all
    python -m repro.bench overhead --gate   # exit 1 on a gate violation
    xdaq-bench tab1                         # console script, same thing
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Protocol

from repro.bench.alloc import run_alloc
from repro.bench.backpressure import run_backpressure
from repro.bench.daqscale import run_daqscale
from repro.bench.dispatch import run_dispatch
from repro.bench.fig6 import run_fig6
from repro.bench.multirail import run_multirail
from repro.bench.orb import run_orb
from repro.bench.overhead import run_overhead
from repro.bench.pcififo import run_pcififo
from repro.bench.ptmodes import run_ptmodes
from repro.bench.tab1 import run_tab1
from repro.bench.zerocopy import run_zerocopy


class Result(Protocol):
    """What every runner returns; gated experiments add
    ``violations() -> list[str]`` (empty when every gate holds)."""

    def report(self) -> str: ...


EXPERIMENTS: dict[str, tuple[str, Callable[[], Result]]] = {
    "fig6": ("Figure 6: blackbox ping-pong latencies", run_fig6),
    "tab1": ("Table 1: whitebox stage breakdown", run_tab1),
    "alloc": ("A1: optimised allocator ablation", run_alloc),
    "zerocopy": ("A2: buffer loaning vs a copy chain", run_zerocopy),
    "orb": ("B1: mini-ORB vs XDAQ overhead", run_orb),
    "ptmodes": ("X1: polling vs task-mode PTs", run_ptmodes),
    "dispatch": ("X2: dispatch scaling with device count", run_dispatch),
    "pcififo": ("X3: hardware FIFO support", run_pcififo),
    "multirail": ("X4: multi-rail transports", run_multirail),
    "daqscale": ("X5: event-builder throughput at cluster scale", run_daqscale),
    "overhead": ("X6/X9/X11: observer overhead on the dispatch path",
                 run_overhead),
    "backpressure": ("X10: queue depth under fan-out saturation",
                     run_backpressure),
}


def violations(result: Result) -> list[str]:
    """The gate: what ``result`` reports as out of bounds (nothing, for
    an experiment that has no gate)."""
    check = getattr(result, "violations", None)
    return check() if check is not None else []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xdaq-bench",
        description="Regenerate the paper's tables, figures and claims.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="experiment id from DESIGN.md §4 (or 'all')",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="exit 1 when an experiment's result violates its gate",
    )
    args = parser.parse_args(argv)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failed = False
    for name in names:
        title, runner = EXPERIMENTS[name]
        print(f"== {name}: {title} ==")
        start = time.perf_counter()
        result = runner()
        print(result.report())
        print(f"[{name} done in {time.perf_counter() - start:.1f}s]\n")
        if args.gate:
            for violation in violations(result):
                print(f"GATE VIOLATION: {name}: {violation}", file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
