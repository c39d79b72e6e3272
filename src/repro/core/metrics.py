"""Metric naming and the Prometheus text exposition.

The paper's system-management claim (§2) is that every component is
observable "according to one common scheme": the utility message
interface it inherits.  A node's metric series are therefore its
owners' ``export_counters()`` maps, read when the snapshot is taken
(:func:`repro.core.telemetry.node_snapshot`): the hot path keeps
bumping plain Python ints and pays nothing for being observable, and
a series lives exactly as long as its owner.  Distributions are not
kept here: dispatch latency is a projection of the flight-recorder
ring, taken when the collector reads it
(:func:`repro.flightrec.timeline.dispatch_percentiles`).

Naming scheme: ``<subsystem>_<what>[_<unit>][_total]`` with
``snake_case`` and only ``[a-zA-Z0-9_]`` (:func:`sanitize_metric_name`
maps runtime names such as transport names onto it).  Subsystem
prefixes in use: ``exe_`` (executive), ``pool_``, ``timer_``, ``pt_``
(peer transports), ``rel_`` (reliable endpoint), ``hb_``/``peer_``/
``peers_`` (liveness), ``flightrec_`` (flight recorder), ``dataflow_``
(the outbox) and ``prof_`` (profiling).
"""

from __future__ import annotations

import re
from typing import Mapping

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str) -> str:
    """Map an arbitrary runtime name onto the metric alphabet.

    Transport and device names may contain ``-`` or ``.`` (e.g. the
    queued PT names itself ``q0-1``); Prometheus metric names may not.
    """
    return _NAME_RE.sub("_", name)


def prometheus_lines(
    flat: Mapping[str, float], labels: Mapping[str, object]
) -> list[str]:
    """Render a flat snapshot as ``repro_<name>{labels} value`` lines.

    Series are sorted and label values are escaped.
    """
    base = ",".join(
        f'{k}="{openmetrics_escape(str(v))}"' for k, v in labels.items()
    )
    suffix = f"{{{base}}}" if base else ""
    return [f"repro_{key}{suffix} {format_value(flat[key])}" for key in sorted(flat)]


def openmetrics_escape(value: str) -> str:
    """Escape a label value per the OpenMetrics exposition ABNF:
    backslash, double-quote and newline, in that order."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """A series value as exposition text: integral values without a
    fraction, booleans as 0/1."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))
