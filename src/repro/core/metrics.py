"""The metrics registry: callback gauges.

The paper's system-management claim (§2) is that every component is
observable "according to one common scheme": one instrument kind that
one ``UtilParamsGet`` sweep can export verbatim.  A :class:`Gauge` is
a point-in-time value sampled from a callback at snapshot time.  Event
counts are gauges too: the hot path keeps bumping a plain Python int
(queue depths, dispatch totals, beats received) and pays nothing for
being observable.  Distributions are not kept here: dispatch latency
is a projection of the flight-recorder ring, taken when the collector
reads it (:func:`repro.flightrec.timeline.dispatch_percentiles`).

Naming scheme: ``<subsystem>_<what>[_<unit>][_total]`` with
``snake_case`` and only ``[a-zA-Z0-9_]`` (use
:func:`sanitize_metric_name` when interpolating runtime names such as
transport names).  Subsystem prefixes in use: ``exe_`` (executive),
``pool_``, ``timer_``, ``pt_`` (peer transports), ``rel_`` (reliable
endpoint), ``hb_``/``peer_`` (liveness), ``flightrec_`` (flight recorder).
"""

from __future__ import annotations

import re
from typing import Callable, Mapping

from repro.i2o.errors import I2OError

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str) -> str:
    """Map an arbitrary runtime name onto the metric alphabet.

    Transport and device names may contain ``-`` or ``.`` (e.g. the
    queued PT names itself ``q0-1``); Prometheus metric names may not.
    """
    return _NAME_RE.sub("_", name)


class Gauge:
    """A point-in-time value: a zero-argument callback invoked lazily —
    only when the gauge is read (snapshot or :meth:`get`), never on
    the hot path.
    """

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self._fn = fn

    def rebind(self, fn: Callable[[], float]) -> None:
        """Replace the sampling callback (device re-plug paths)."""
        self._fn = fn

    def get(self) -> float:
        return self._fn()


class MetricsRegistry:
    """One node's gauges, keyed by name.

    Every :class:`~repro.core.executive.Executive` owns one; devices
    and transports register gauges against it, and the
    telemetry agent exports :meth:`snapshot` over ``UtilParamsGet``.
    """

    def __init__(self) -> None:
        self._gauges: dict[str, Gauge] = {}

    # -- registration -------------------------------------------------------
    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        """Get-or-create a gauge; an existing one rebinds to ``fn``."""
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name, fn)
        else:
            found.rebind(fn)
        return found

    # -- convenience --------------------------------------------------------
    def value(self, name: str) -> float:
        """Current value of a gauge by name."""
        gauge = self._gauges.get(name)
        if gauge is not None:
            return gauge.get()
        raise I2OError(f"no metric named {name!r}")

    # -- export -------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Every gauge sampled, as ``name -> number``."""
        return {name: gauge.get() for name, gauge in self._gauges.items()}

    def render_prometheus(self, labels: Mapping[str, object] | None = None) -> str:
        """This registry's snapshot in the Prometheus text format."""
        return "\n".join(prometheus_lines(self.snapshot(), labels or {})) + "\n"


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
    return [f"repro_{key}{suffix} {_fmt_value(flat[key])}" for key in sorted(flat)]


def openmetrics_escape(value: str) -> str:
    """Escape a label value per the OpenMetrics exposition ABNF:
    backslash, double-quote and newline, in that order."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt_value(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))
