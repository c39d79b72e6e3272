"""Experiment N1 — the native-plane honesty check.

The simulation plane regenerates the paper's numbers from a calibrated
cost model; this bench measures what the *same framework code* costs
as real Python: per-call round-trip time over the in-process queue
transport across payload sizes.  EXPERIMENTS.md reports these side by
side with the paper so nobody mistakes modelled microseconds for Python
microseconds; where the Python microseconds go, stage by stage, is
``python -m repro.diag where`` and the trajectory's per-layer rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.fits import LinearFit, linear_fit
from repro.bench.pingpong import run_native_pingpong
from repro.bench.report import format_table

DEFAULT_PAYLOADS = (1, 256, 1024, 4096)


@dataclass
class NativeResult:
    payloads: list[int] = field(default_factory=list)
    rtt_us_median: list[float] = field(default_factory=list)
    fit: LinearFit | None = None

    def report(self) -> str:
        rows = [
            (p, f"{us:.1f}")
            for p, us in zip(self.payloads, self.rtt_us_median)
        ]
        table = format_table(
            ["payload B", "RTT us (median)"],
            rows,
            title="N1: native-plane (real Python) ping-pong over the "
            "queue transport",
        )
        return f"{table}\n\nfit: {self.fit}"


def run_native(
    payloads: tuple[int, ...] = DEFAULT_PAYLOADS, rounds: int = 300
) -> NativeResult:
    result = NativeResult()
    for payload in payloads:
        r = run_native_pingpong(payload, rounds)
        result.payloads.append(payload)
        result.rtt_us_median.append(float(np.median(r.rtts_ns)) / 1000.0)
    result.fit = linear_fit(result.payloads, result.rtt_us_median)
    return result
