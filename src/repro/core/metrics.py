"""The metrics registry: counters, gauges and fixed-bucket histograms.

The paper's system-management claim (§2) is that every component is
observable "according to one common scheme": typed instruments that
one ``UtilParamsGet`` sweep can export verbatim:

* :class:`Counter` — a monotonically increasing event count;
* :class:`Gauge` — a point-in-time value, either set explicitly or
  sampled from a callback at snapshot time.  Callback gauges are the
  preferred way to expose hot-path state (queue depths, dispatch
  totals): the hot path keeps bumping a plain Python int and pays
  nothing for being observable;
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
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.core.observer import DispatchObserver, DispatchRecord
from repro.core.tracing import is_trace_context
from repro.i2o.errors import I2OError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executive import Executive

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


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> int:
        self.value += n
        return self.value


class Gauge:
    """A point-in-time value.

    Either set explicitly with :meth:`set`, or constructed with a
    zero-argument callback that is invoked lazily — only when the
    gauge is read (snapshot or :meth:`get`), never on the hot path.
    """

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Callable[[], float] | None = None) -> None:
        self.name = name
        self._value: float = 0
        self._fn = fn

    def set(self, value: float) -> None:
        self._fn = None
        self._value = value

    def rebind(self, fn: Callable[[], float]) -> None:
        """Replace the sampling callback (device re-plug paths)."""
        self._fn = fn

    def get(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value


@dataclass(frozen=True, slots=True)
class Exemplar:
    """One slow-observation exemplar pinned to a histogram bucket.

    Carries the trace id of a concrete observation that landed in the
    bucket, so a p99 spike in the exposition links straight to a
    stitched trace (``TelemetryCollector.timeline``) or a flight-
    recorder dump — the OpenMetrics exemplar model.
    """

    trace_id: int
    value: float
    ts: float

    def labels(self) -> dict[str, str]:
        return {"trace_id": format(self.trace_id, "x")}


class Histogram:
    """Fixed-bucket histogram with inclusive upper bounds.

    ``buckets`` are the finite upper bounds in increasing order; an
    implicit ``+Inf`` bucket catches the overflow.  ``observe(v)``
    places ``v`` in the first bucket whose bound is >= v (Prometheus
    ``le`` semantics), tracked per-bucket; the snapshot export is
    *cumulative*, matching the Prometheus text format.

    Exemplar capture is opt-in (:meth:`enable_exemplars`): when on,
    ``observe(v, exemplar=trace_id)`` remembers the latest exemplar
    per bucket — one slot per bucket, overwrite-newest, so the memory
    cost is fixed and the hot path pays one slot store only for
    observations that actually carry a trace id.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "exemplars")

    def __init__(self, name: str, buckets: Iterable[float]) -> None:
        bounds = list(buckets)
        if not bounds or any(b <= a for b, a in zip(bounds[1:], bounds)):
            raise I2OError(f"histogram {name!r} buckets must strictly increase")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.count = 0
        self.sum = 0.0
        self.exemplars: list[Exemplar | None] | None = None

    def enable_exemplars(self) -> None:
        """Start capturing per-bucket exemplars (idempotent)."""
        if self.exemplars is None:
            self.exemplars = [None] * (len(self.buckets) + 1)

    def observe(self, value: float, exemplar: int = 0) -> None:
        index = bisect_left(self.buckets, value)
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if exemplar and self.exemplars is not None:
            self.exemplars[index] = Exemplar(exemplar, value, time.time())

    def exemplar_for(self, bound: float) -> Exemplar | None:
        """Latest exemplar of the bucket with upper bound ``bound``
        (``inf`` for the overflow bucket); ``None`` when capture is
        off or the bucket never saw a traced observation."""
        if self.exemplars is None:
            return None
        if bound == float("inf"):
            return self.exemplars[-1]
        index = bisect_left(self.buckets, bound)
        if index == len(self.buckets) or self.buckets[index] != bound:
            raise I2OError(f"histogram {self.name!r} has no bucket le={bound}")
        return self.exemplars[index]

    def bucket_count(self, bound: float) -> int:
        """Non-cumulative count of the bucket with upper bound ``bound``."""
        index = bisect_left(self.buckets, bound)
        if index == len(self.buckets) or self.buckets[index] != bound:
            raise I2OError(f"histogram {self.name!r} has no bucket le={bound}")
        return self.counts[index]

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

    The per-dispatch latency histogram — the only instrument that
    needs a clock read on the hot path — is populated by attaching a
    :class:`DispatchTimer`, so observability costs nothing unless
    asked for.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- registration -------------------------------------------------------
    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str, fn: Callable[[], float] | None = None) -> Gauge:
        """Get-or-create a gauge; passing ``fn`` (re)binds its callback."""
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name, fn)
        elif fn is not None:
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
    def inc(self, name: str, n: int = 1) -> int:
        """Bump a counter, creating it on first use."""
        return self.counter(name).inc(n)

    def value(self, name: str) -> float:
        """Current value of a counter or gauge by name."""
        counter = self._counters.get(name)
        if counter is not None:
            return counter.value
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
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.get()
        for histogram in self._histograms.values():
            out.update(histogram.export())
        return out

    def render_prometheus(self, labels: Mapping[str, object] | None = None) -> str:
        """This registry's snapshot in the Prometheus text format.

        Plain Prometheus mode: exemplars are *omitted* — the classic
        text parser chokes on the ``#`` exemplar suffix.  Use
        :meth:`render_openmetrics` to expose them.
        """
        return "\n".join(prometheus_lines(self.snapshot(), labels or {})) + "\n"

    def render_openmetrics(
        self, labels: Mapping[str, object] | None = None
    ) -> str:
        """The snapshot in OpenMetrics text format, exemplars included.

        Histogram bucket lines carry their latest captured exemplar in
        the OpenMetrics syntax (``... # {trace_id="..."} value ts``),
        linking a slow bucket straight to a stitched trace id; every
        other instrument renders exactly as in Prometheus mode.  Ends
        with the mandatory ``# EOF`` terminator.
        """
        return "\n".join(
            openmetrics_lines(
                self.snapshot(), labels or {},
                list(self._histograms.values()),
            )
        ) + "\n"


class DispatchTimer(DispatchObserver):
    """Feeds ``exe_dispatch_ns`` from the dispatch record's shared
    clock pair (``exe.attach(DispatchTimer())``)."""

    __slots__ = ("_histogram",)
    label = "dispatch timer"

    def on_attach(self, exe: "Executive") -> None:
        self._histogram = exe.metrics.histogram(
            "exe_dispatch_ns", DISPATCH_LATENCY_BUCKETS_NS
        )

    def dispatch_end(self, rec: DispatchRecord) -> None:
        # Traced dispatches pin their trace id to the latency bucket
        # they land in (OpenMetrics exemplars).
        context = rec.context
        self._histogram.observe(
            rec.end_ns - rec.start_ns,
            context if is_trace_context(context) else 0,
        )


def prometheus_lines(
    flat: Mapping[str, float], labels: Mapping[str, object]
) -> list[str]:
    """Render a flat snapshot as ``repro_<name>{labels} value`` lines.

    Histogram keys produced by :meth:`Histogram.export` are folded back
    into a proper ``le`` label so Prometheus tooling sees a native
    histogram series.
    """
    return _exposition_lines(flat, labels, {})


def openmetrics_lines(
    flat: Mapping[str, float],
    labels: Mapping[str, object],
    histograms: Iterable[Histogram] = (),
) -> list[str]:
    """Render a flat snapshot in OpenMetrics text format.

    Identical line shape to :func:`prometheus_lines` except that
    bucket lines whose histogram captured an exemplar grow the
    `` # {trace_id="..."} value timestamp`` suffix, and the exposition
    ends with ``# EOF``.
    """
    lines = _exposition_lines(flat, labels, {h.name: h for h in histograms})
    lines.append("# EOF")
    return lines


def _exposition_lines(
    flat: Mapping[str, float],
    labels: Mapping[str, object],
    exemplar_sources: Mapping[str, Histogram],
) -> list[str]:
    """The one exposition renderer under both text formats: sorted
    series, ``le`` folded out of the bucket keys, label values escaped
    (both ABNFs demand the same three escapes), exemplars appended to
    the bucket lines of the histograms in ``exemplar_sources``."""
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
            line = f"repro_{name}_bucket{{{labelset}}} {_fmt_value(value)}"
            hist = exemplar_sources.get(name)
            if hist is not None:
                ex = hist.exemplar_for(upper)
                if ex is not None:
                    line += _exemplar_suffix(ex)
            lines.append(line)
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


def _exemplar_suffix(ex: Exemplar) -> str:
    pairs = ",".join(
        f'{k}="{openmetrics_escape(v)}"' for k, v in ex.labels().items()
    )
    return f" # {{{pairs}}} {_fmt_value(ex.value)} {ex.ts:.3f}"


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
