"""``repro.top`` — the top-like console table for a cluster.

Renders one row per node from :class:`~repro.core.telemetry.
TelemetryCollector` sweeps: dispatch totals, scheduler queue depth,
pool occupancy, dispatch latency p50/p99 (``exe_dispatch_ns_p50``/
``_p99``: exact nearest-rank percentiles the collector takes over each
node's mirrored ring), reliable-endpoint journal depth, per-PT copy
counters, peers currently down and handler errors.  The console
consumes only what the collector already gathered over
``UtilParamsGet`` — no private verbs, no cross-node object access
(paper §2's "one common scheme" discipline).

``python -m repro.diag top`` is the command; embedded use: call
:func:`render` with any ``node -> {metric: value}`` mapping
(``TelemetryCollector.node_metrics`` verbatim).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

def _sum_matching(metrics: dict[str, float], prefix: str, suffix: str) -> float:
    return sum(
        value for key, value in metrics.items()
        if key.startswith(prefix) and key.endswith(suffix)
    )


def _fmt_ns(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 1_000_000:
        return f"{value / 1_000_000:.0f}ms"
    if value >= 1_000:
        return f"{value / 1_000:.0f}us"
    return f"{value:.0f}ns"


def _fmt_count(value: float) -> str:
    if value >= 10_000_000:
        return f"{value / 1_000_000:.0f}M"
    if value >= 10_000:
        return f"{value / 1_000:.0f}k"
    return str(int(value))


def hot_ratio(metrics: dict[str, float]) -> float | None:
    """Fraction of profiler samples that landed inside a dispatch —
    the sampling profiler's busy ratio, ``None`` when no sampler ran."""
    total = metrics.get("prof_samples_total", 0)
    if not total:
        return None
    return metrics.get("prof_busy_samples_total", 0) / total


def _fmt_pct(value: float | None) -> str:
    return "-" if value is None else f"{100 * value:.0f}%"


def _counter(name: str) -> Callable[[int, dict[str, float]], float]:
    return lambda node, m: m.get(name, 0)


#: column -> (numeric value over one node's snapshot, cell formatter).
#: ``sort=`` orders by the *values*, not the humanised cells, so "9us"
#: never sorts above "10ms".
_COLUMNS: dict[str, tuple[Callable[[int, dict[str, float]], Any],
                          Callable[[Any], str]]] = {
    "NODE": (lambda node, m: node, str),
    "DISP": (_counter("exe_dispatched_total"), _fmt_count),
    "QUEUE": (_counter("exe_scheduler_depth"), _fmt_count),
    "POOL": (_counter("pool_blocks_in_flight"), _fmt_count),
    "P50": (lambda node, m: m.get("exe_dispatch_ns_p50"), _fmt_ns),
    "P99": (lambda node, m: m.get("exe_dispatch_ns_p99"), _fmt_ns),
    "HOT": (lambda node, m: hot_ratio(m), _fmt_pct),
    "JRNL": (
        lambda node, m: _sum_matching(m, "rel_", "_journal_depth"),
        _fmt_count,
    ),
    "COPIES": (
        lambda node, m: _sum_matching(m, "pt_", "_tx_copies")
        + _sum_matching(m, "pt_", "_rx_copies"),
        _fmt_count,
    ),
    "DOWN": (
        lambda node, m: max(
            0.0,
            m.get("peer_deaths_total", 0) - m.get("peer_rejoins_total", 0),
        ),
        _fmt_count,
    ),
    "ERR": (_counter("exe_handler_errors_total"), _fmt_count),
    "SPILL": (_counter("flightrec_spills_total"), _fmt_count),
    "SHED": (_counter("dataflow_shed_total"), _fmt_count),
}

COLUMNS = tuple(_COLUMNS)


def node_row(node: int, metrics: dict[str, float]) -> tuple[str, ...]:
    """One console row from one node's metric snapshot."""
    return tuple(
        fmt(value(node, metrics)) for value, fmt in _COLUMNS.values()
    )


def render(
    node_metrics: dict[int, dict[str, float]],
    *,
    sort: str | None = None,
    widths: list[int] | None = None,
) -> str:
    """The full console frame for a ``node -> snapshot`` mapping.

    ``sort`` orders the rows by a column name (descending for every
    column except NODE), by the underlying numeric values.  ``widths``
    is optional persistent column-width state: a list the caller keeps
    between frames; widths only ever grow, so a counter rolling from
    ``999`` to ``1k`` or a node dropping out no longer makes the whole
    table shiver on each live refresh.
    """
    nodes = sorted(node_metrics)
    if sort is not None:
        if sort.upper() not in _COLUMNS:
            raise ValueError(
                f"unknown sort column {sort!r}; "
                f"one of {', '.join(c.lower() for c in COLUMNS)}"
            )
        value = _COLUMNS[sort.upper()][0]

        def key(node: int) -> float:
            found = value(node, node_metrics[node])
            return -1 if found is None else found

        nodes.sort(key=key, reverse=sort.upper() != "NODE")
    rows = [node_row(node, node_metrics[node]) for node in nodes]
    table = [COLUMNS] + rows
    if widths is None:
        widths = [0] * len(COLUMNS)
    while len(widths) < len(COLUMNS):
        widths.append(0)
    for i in range(len(COLUMNS)):
        widths[i] = max(widths[i], max(len(row[i]) for row in table))
    lines = [
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in table
    ]
    total = sum(
        m.get("exe_dispatched_total", 0) for m in node_metrics.values()
    )
    lines.append(
        f"-- {len(node_metrics)} node(s), "
        f"{_fmt_count(total)} dispatched cluster-wide --"
    )
    return "\n".join(lines)
