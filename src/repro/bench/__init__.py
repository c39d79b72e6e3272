"""The benchmark harness: regenerates every table and figure.

Each experiment from DESIGN.md's per-experiment index has a
``run_<id>`` function here returning a plain-data result with a
``report()``, reached through the one CLI (``python -m repro.bench
<id|all> [--gate]``) and, at small sizes, from ``tests/bench``.
"""

from repro.bench.devices import EchoDevice, PingDevice
from repro.bench.fits import LinearFit, linear_fit
from repro.bench.pingpong import (
    PingPongResult,
    build_gm_cluster,
    run_native_pingpong,
    run_xdaq_gm_pingpong,
)
from repro.bench.report import format_table

__all__ = [
    "EchoDevice",
    "LinearFit",
    "PingDevice",
    "PingPongResult",
    "build_gm_cluster",
    "format_table",
    "linear_fit",
    "run_native_pingpong",
    "run_xdaq_gm_pingpong",
]
