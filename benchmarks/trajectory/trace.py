"""Spans recorded by the driver around the calls it makes into ``repro``.

The program under test is not instrumented: a span covers one call the
*driver* makes (``bootstrap``, a ``send``, one ``exe.step()``, the
journal ``close``).  Workloads bind the calls they make through
:meth:`wrap` once, at build time; :class:`NullTracer` hands the
function back unchanged, so the untraced rounds that produce the
end-to-end metrics pay nothing for the existence of tracing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

SPAN_FIELDS = ("name", "op_id", "parent", "t0_ns", "t1_ns", "worked")


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False
    op_id = 0

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        return fn

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def counters(self, at: str, values: dict[str, float]) -> None:
        pass


class Tracer(NullTracer):
    """Keeps spans in memory; :meth:`write` dumps them at exit.

    A span's ``parent`` is the index of the enclosing :meth:`span`
    block (-1 at the root); ``op_id`` is whatever the workload last
    assigned — the round trip for ping-pong, the chunk for windowed
    workloads, where one ``step()`` serves many operations at once.
    ``worked`` is the call's truthiness (``step()`` returns whether it
    did anything), ``None`` for blocks.
    """

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list[Any]] = []
        self.snapshots: list[dict[str, Any]] = []
        self.op_id = 0
        self._parent = -1

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans

        def traced(*args: Any) -> Any:
            t0 = perf_counter_ns()
            result = fn(*args)
            t1 = perf_counter_ns()
            spans.append(
                [name, self.op_id, self._parent, t0, t1, bool(result)]
            )
            return result

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = [name, self.op_id, self._parent, perf_counter_ns(), 0, None]
        self.spans.append(record)
        outer, self._parent = self._parent, index
        try:
            yield
        finally:
            record[4] = perf_counter_ns()
            self._parent = outer

    def counters(self, at: str, values: dict[str, float]) -> None:
        """Snapshot public counters at a span boundary."""
        self.snapshots.append(
            {"at": at, "op_id": self.op_id, "t_ns": perf_counter_ns(),
             **values}
        )

    def step_stats(self, t0_ns: int, t1_ns: int) -> dict[str, Any]:
        """Fold the ``step@<node>`` spans inside ``[t0_ns, t1_ns]``:
        time in productive steps per node, and idle/total step counts."""
        busy_ns: dict[str, int] = {}
        steps = idle = 0
        for name, _op, _parent, t0, t1, worked in self.spans:
            if not name.startswith("step@") or t0 < t0_ns or t1 > t1_ns:
                continue
            steps += 1
            if worked:
                node = name[5:]
                busy_ns[node] = busy_ns.get(node, 0) + (t1 - t0)
            else:
                idle += 1
        return {"busy_ns": busy_ns, "steps": steps, "idle_steps": idle}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": self.workload,
                    "fields": SPAN_FIELDS,
                    "spans": self.spans,
                    "counters": self.snapshots,
                },
                fh,
            )
