"""The sampling profiler: periodic stack walks of executive threads.

A single ``profile-sampler`` thread wakes at the configured rate and
calls ``sys._current_frames()`` once per tick — the CPython API that
returns every live thread's current frame without interrupting it.
For each registered executive it resolves the loop-of-control thread
(dynamically, from ``Executive._thread``, so an executive restart is
picked up at the next tick), walks the frame chain into a collapsed
stack, and attributes the sample to the dispatch in flight on that
stack: the innermost ``Executive._dispatch_one`` frame whose ``self``
is the watched executive names it, through the decoded header of its
``frame`` local.

The attribution reads only what the dispatch loop already holds, so
the sampler adds nothing to the dispatch path and needs no observer,
and it tells apart several executives stepped from one thread (the
sim plane, ``pump()``, the native ping-pong).  A sample landing
between two dispatches is idle.  The sampler never mutates executive
state.

Output is Brendan-Gregg collapsed-stack format (``frame;frame;... N``)
with two synthetic root frames carrying the attribution —
``node<N>;<context>`` — so one flamegraph shows *which device and
message type* own the cycles, not just which Python functions.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from types import FrameType
from typing import Optional

from repro.core.executive import Executive
from repro.i2o.errors import I2OError
from repro.i2o.function_codes import function_name

#: the dispatch loop's code object: a stack frame running it holds the
#: in-flight dispatch in its ``frame`` local
_DISPATCH_CODE = Executive._dispatch_one.__code__


def _xfunction_names() -> dict[tuple[int, int], str]:
    """Reverse map of the typed-message registry: wire code → name."""
    from repro.dataflow.registry import registered

    return {
        (mtype.function, mtype.xfunction): mtype.name
        for mtype in registered()
    }


def context_label(ctx: "tuple[int, int, int] | None") -> str:
    """Human form of a dispatch context: message-type name when the
    registry knows the wire code, I2O function name otherwise."""
    if ctx is None:
        return "idle"
    target, function, xfunction = ctx
    name = _xfunction_names().get((function, xfunction))
    if name is None:
        name = function_name(function)
        if xfunction:
            name += f"/xfn{xfunction:#06x}"
    return f"tid{target}:{name}"


class SamplingProfiler:
    """Cluster-wide sampler: one thread, many watched executives.

    ``register(exe)`` attaches nothing to the executive; it sets
    ``exe.profiler``, through which the node's metric snapshot
    (:func:`~repro.core.telemetry.node_snapshot`) reads the per-node
    sample tallies, so telemetry sweeps and ``repro.top`` see a HOT
    column with zero extra plumbing.
    ``start``/``stop`` are idempotent; the sampled thread ident is
    re-resolved every tick, so executives may stop and restart freely
    while the profiler runs.
    """

    def __init__(self, hz: float = 97.0, *, max_depth: int = 48) -> None:
        if hz <= 0:
            raise I2OError(f"sampling rate must be positive, got {hz}")
        self.hz = hz
        self.max_depth = max_depth
        #: (node, context, collapsed stack) -> samples observed
        self.counts: Counter[
            tuple[int, Optional[tuple[int, int, int]], tuple[str, ...]]
        ] = Counter()
        #: per-node totals backing the HOT column
        self.node_samples: Counter[int] = Counter()
        self.node_busy: Counter[int] = Counter()
        self.ticks = 0
        self._watched: dict[int, Executive] = {}
        self._idents: dict[int, int] = {}
        #: registration happens on caller threads, reads on the sampler
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- registration -------------------------------------------------------
    def register(self, exe: Executive) -> None:
        """Watch an executive (idempotent)."""
        with self._lock:
            self._watched[exe.node] = exe
        exe.profiler = self

    def unregister(self, exe: Executive) -> None:
        """Stop watching the executive."""
        with self._lock:
            if self._watched.get(exe.node) is exe:
                del self._watched[exe.node]
                self._idents.pop(exe.node, None)
        if exe.profiler is self:
            exe.profiler = None

    def watch_thread(self, node: int, ident: int | None = None) -> None:
        """Pin the sampled thread for ``node`` explicitly.

        For single-threaded drivers (benchmarks, a pump loop in the
        main thread) where ``Executive._thread`` is never set.
        Defaults to the calling thread.
        """
        with self._lock:
            self._idents[node] = (
                ident if ident is not None else threading.get_ident()
            )

    # -- lifecycle ----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> None:
        """Launch the sampler thread (no-op when already running)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="profile-sampler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop and join the sampler thread (no-op when not running)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout)
        if thread.is_alive():  # pragma: no cover - defensive
            raise I2OError("profile sampler thread did not stop")
        self._thread = None

    def clear(self) -> None:
        """Drop accumulated samples (watched set is kept)."""
        self.counts.clear()
        self.node_samples.clear()
        self.node_busy.clear()
        self.ticks = 0

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            self.sample_once()

    # -- sampling -----------------------------------------------------------
    def sample_once(self) -> int:
        """Take one sample of every watched executive; returns how many
        threads were actually observed this tick."""
        self.ticks += 1
        frames = sys._current_frames()
        with self._lock:
            watched = list(self._watched.items())
            idents = dict(self._idents)
        sampled = 0
        try:
            for node, exe in watched:
                ident = idents.get(node)
                if ident is None:
                    # Resolve the loop thread live: restart-safe, and a
                    # stopped executive simply yields no samples.
                    thread = exe._thread
                    ident = thread.ident if thread is not None else None
                if ident is None:
                    continue
                frame = frames.get(ident)
                if frame is None:
                    continue
                stack, ctx = self._walk(frame, exe)
                self.counts[(node, ctx, stack)] += 1
                self.node_samples[node] += 1
                if ctx is not None:
                    self.node_busy[node] += 1
                sampled += 1
        finally:
            # Frames hold their whole locals chain alive; drop promptly.
            del frames
        return sampled

    def _walk(
        self, frame: FrameType, exe: Executive
    ) -> tuple[tuple[str, ...], Optional[tuple[int, int, int]]]:
        """Collapse a frame chain to ``module.qualname`` strings,
        outermost first (flamegraph root-to-leaf order), and find the
        ``(target, function, xfunction)`` of ``exe``'s dispatch in
        flight on it (``None`` = idle).  Past ``max_depth`` the walk
        only looks for that dispatch."""
        parts: list[str] = []
        ctx = None
        current: FrameType | None = frame
        while current is not None:
            code = current.f_code
            if len(parts) < self.max_depth:
                module = current.f_globals.get("__name__", "?")
                name = getattr(code, "co_qualname", code.co_name)
                parts.append(f"{module}.{name}")
            elif ctx is not None:
                break
            if ctx is None and code is _DISPATCH_CODE:
                local = current.f_locals
                dispatched = local.get("frame")
                if local.get("self") is exe and dispatched is not None:
                    ctx = (dispatched._target, dispatched._function,
                           dispatched._xfunction)
            current = current.f_back
        parts.reverse()
        return tuple(parts), ctx

    # -- reporting ----------------------------------------------------------
    def collapsed(self) -> list[str]:
        """Collapsed-stack lines (``a;b;c N``), flamegraph-ready.

        The first two frames are synthetic attribution roots:
        ``node<N>`` and the dispatch context label.
        """
        lines = []
        for (node, ctx, stack), count in self.counts.items():
            frames = [f"node{node}", context_label(ctx), *stack]
            lines.append(";".join(frames) + f" {count}")
        return sorted(lines)

    def hot_contexts(
        self, top: int = 10
    ) -> list[tuple[int, tuple[int, int, int], int]]:
        """Hottest dispatch contexts: (node, context, samples), by
        descending sample count — the top-N devices/message types."""
        agg: Counter[tuple[int, tuple[int, int, int]]] = Counter()
        for (node, ctx, _stack), count in self.counts.items():
            if ctx is not None:
                agg[(node, ctx)] += count
        return [
            (node, ctx, count)
            for (node, ctx), count in agg.most_common(top)
        ]
