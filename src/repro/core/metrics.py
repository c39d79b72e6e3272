"""The metrics registry: callback gauges and fixed-bucket histograms.

The paper's system-management claim (§2) is that every component is
observable "according to one common scheme": typed instruments that
one ``UtilParamsGet`` sweep can export verbatim:

* :class:`Gauge` — a point-in-time value sampled from a callback at
  snapshot time.  Event counts are gauges too: the hot path keeps
  bumping a plain Python int (queue depths, dispatch totals, beats
  received) and pays nothing for being observable;
* :class:`Histogram` — fixed inclusive upper-bound buckets with
  Prometheus ``le`` semantics (an observation equal to a bound lands
  in that bound's bucket; exported counts are cumulative).

Naming scheme: ``<subsystem>_<what>[_<unit>][_total]`` with
``snake_case`` and only ``[a-zA-Z0-9_]`` (use
:func:`sanitize_metric_name` when interpolating runtime names such as
transport names).  Subsystem prefixes in use: ``exe_`` (executive),
``pool_``, ``timer_``, ``pt_`` (peer transports), ``rel_`` (reliable
endpoint), ``hb_``/``peer_`` (liveness), ``flightrec_`` (flight recorder).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Callable, Iterable, Mapping

from repro.i2o.errors import I2OError

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: Upper bounds (ns) for the dispatch-latency histogram
#: (``exe_dispatch_ns``).  Spaced to resolve both the paper's µs-scale
#: framework overheads and pathological multi-ms handlers.
DISPATCH_LATENCY_BUCKETS_NS: tuple[int, ...] = (
    1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 10_000_000,
)

#: Upper bounds (ns) for journal-recovery latency histograms.  Replay
#: is file I/O plus one retransmission per live record, so the range
#: spans µs-scale empty-journal restarts to deep multi-ms replays.
RECOVERY_LATENCY_BUCKETS_NS: tuple[int, ...] = (
    10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
)


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


class Histogram:
    """Fixed-bucket histogram with inclusive upper bounds.

    ``buckets`` are the finite upper bounds in increasing order; an
    implicit ``+Inf`` bucket catches the overflow.  ``observe(v)``
    places ``v`` in the first bucket whose bound is >= v (Prometheus
    ``le`` semantics), tracked per-bucket; the snapshot export is
    *cumulative*, matching the Prometheus text format.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum")

    def __init__(self, name: str, buckets: Iterable[float]) -> None:
        bounds = list(buckets)
        if not bounds or any(b <= a for b, a in zip(bounds[1:], bounds)):
            raise I2OError(f"histogram {name!r} buckets must strictly increase")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    def export(self) -> dict[str, float]:
        """Flatten to snapshot keys with cumulative bucket counts."""
        out: dict[str, float] = {}
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out[f"{self.name}_bucket_le_{_fmt_bound(bound)}"] = running
        out[f"{self.name}_bucket_le_inf"] = self.count
        out[f"{self.name}_count"] = self.count
        out[f"{self.name}_sum"] = self.sum
        return out


def _fmt_bound(bound: float) -> str:
    if float(bound).is_integer():
        return str(int(bound))
    return repr(float(bound)).replace(".", "p").replace("-", "m")


def parse_bound(text: str) -> float:
    """A bucket bound back from its ``_bucket_le_<bound>`` spelling
    (``inf`` parses to infinity)."""
    return float(text.replace("p", ".").replace("m", "-"))


class MetricsRegistry:
    """One node's metric instruments, keyed by name.

    Every :class:`~repro.core.executive.Executive` owns one; devices
    and transports register instruments against it, and the
    telemetry agent exports :meth:`snapshot` over ``UtilParamsGet``.

    The per-dispatch latency histogram ``exe_dispatch_ns`` is
    populated while a flight recorder is attached: it observes the
    duration its ``dispatch`` record already holds, so a node without
    one pays no clock read for it.
    """

    def __init__(self) -> None:
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- registration -------------------------------------------------------
    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        """Get-or-create a gauge; an existing one rebinds to ``fn``."""
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name, fn)
        else:
            found.rebind(fn)
        return found

    def histogram(self, name: str, buckets: Iterable[float]) -> Histogram:
        """Get-or-create a histogram.

        Re-registering an existing name is fine (device re-plug paths
        reuse the instrument) — but only with the *same* buckets: a
        silent bucket swap would splice two incompatible series under
        one name, so a mismatch raises instead.
        """
        bounds = list(buckets)
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name, bounds)
        elif bounds != found.buckets:
            raise I2OError(
                f"histogram {name!r} re-registered with different buckets: "
                f"{bounds} != {found.buckets}"
            )
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
        """Flatten every instrument to ``name -> number``, sampling
        callback gauges and expanding histograms to cumulative
        ``_bucket_le_*`` / ``_count`` / ``_sum`` keys."""
        out: dict[str, float] = {}
        for name, gauge in self._gauges.items():
            out[name] = gauge.get()
        for histogram in self._histograms.values():
            out.update(histogram.export())
        return out

    def render_prometheus(self, labels: Mapping[str, object] | None = None) -> str:
        """This registry's snapshot in the Prometheus text format."""
        return "\n".join(prometheus_lines(self.snapshot(), labels or {})) + "\n"


def prometheus_lines(
    flat: Mapping[str, float], labels: Mapping[str, object]
) -> list[str]:
    """Render a flat snapshot as ``repro_<name>{labels} value`` lines.

    Series are sorted, histogram keys produced by
    :meth:`Histogram.export` are folded back into a proper ``le`` label
    so Prometheus tooling sees a native histogram series, and label
    values are escaped.
    """
    base = ",".join(
        f'{k}="{openmetrics_escape(str(v))}"' for k, v in labels.items()
    )
    lines: list[str] = []
    for key in sorted(flat, key=_bucket_sort_key):
        value = flat[key]
        name, sep, bound = key.partition("_bucket_le_")
        if sep:
            upper = parse_bound(bound)
            le = "+Inf" if upper == float("inf") else _fmt_value(upper)
            labelset = f'{base},le="{le}"' if base else f'le="{le}"'
            lines.append(f"repro_{name}_bucket{{{labelset}}} {_fmt_value(value)}")
        else:
            suffix = f"{{{base}}}" if base else ""
            lines.append(f"repro_{key}{suffix} {_fmt_value(value)}")
    return lines


def openmetrics_escape(value: str) -> str:
    """Escape a label value per the OpenMetrics exposition ABNF:
    backslash, double-quote and newline, in that order."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _bucket_sort_key(key: str) -> tuple[str, float, str]:
    """Sort plain metrics lexically but bucket series by ascending bound."""
    name, sep, bound = key.partition("_bucket_le_")
    if not sep:
        return (key, float("-inf"), "")
    try:
        return (name, parse_bound(bound), "")
    except ValueError:  # pragma: no cover - defensive
        return (name, float("inf"), bound)


def _fmt_value(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))
