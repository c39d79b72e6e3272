"""Whitebox time probes and the simulation-plane cost model.

Paper §5 (whitebox benchmark): *"we instrumented our code with time
probes.  We measure the time difference between two probes in
nanoseconds.  The values are then again averaged over the 100,000
calls."*

The same probe points serve both planes:

* **native plane** — ``Probes(mode="wall")`` records real
  ``perf_counter_ns`` durations per stage;
* **simulation plane** — ``Probes(mode="model", model=...)`` *imposes*
  each stage's cost from a :class:`CostModel`, accruing virtual
  nanoseconds into a ledger that the node's simulation process converts
  into ``yield delay(...)``.  This is how Table 1 regenerates
  deterministically with paper-scale numbers.

Probe stages are named after Table 1 rows:

==================  ====================================================
``pt_processing``   handling an incoming message in the peer transport
``demultiplex``     scheduler pop + dispatch-table lookup
``upcall``          entering the functor (argument binding/validation)
``application``     the user handler body, including its frameSend
``postprocess``     releasing the frame and per-dispatch cleanup
``frame_alloc``     pool allocation (nested inside pt_processing)
``frame_free``      pool release (nested inside postprocess)
==================  ====================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.i2o.errors import I2OError

#: Exclusive stage costs in nanoseconds, calibrated so the *inclusive*
#: stage medians equal Table 1 of the paper:
#: pt_processing = 740 + frame_alloc 2180 = 2920 ns (2.92 µs), and
#: postprocess = 710 + frame_free 1780 = 2490 ns (2.49 µs).
PAPER_TABLE1_COSTS_NS: dict[str, int] = {
    "pt_processing": 740,
    "demultiplex": 220,
    "upcall": 470,
    # 1420 exclusive + the reply's nested frame_alloc (2180) = the
    # paper's 3.6 µs "Application (incl. frameSend)".
    "application": 1420,
    "postprocess": 710,
    "frame_alloc": 2180,
    "frame_free": 1780,
}

#: Costs with the §5 optimised allocator: *"the time needed to allocate
#: a frame shrinks dramatically"*, cutting the blackbox overhead by
#: ~4 µs (8.9 → 4.9 µs).  frame_alloc drops to ~0.2 µs and frame_free
#: symmetrically cheapens (LIFO free-list push).
OPTIMISED_ALLOC_COSTS_NS: dict[str, int] = {
    **PAPER_TABLE1_COSTS_NS,
    "frame_alloc": 500,
    "frame_free": 400,
}


@dataclass(frozen=True)
class CostModel:
    """Per-stage exclusive CPU costs for the simulation plane.

    ``jitter_frac`` adds seeded dispersion per span (fractional sigma
    of each stage cost), reproducing the run-to-run spread behind the
    paper's reported standard deviations (blackbox 8.9 µs, σ = 0.6)
    while keeping every run bit-reproducible.
    """

    costs_ns: dict[str, int] = field(
        default_factory=lambda: dict(PAPER_TABLE1_COSTS_NS)
    )
    default_ns: int = 0
    jitter_frac: float = 0.0
    jitter_seed: int = 0

    def cost(self, stage: str) -> int:
        return self.costs_ns.get(stage, self.default_ns)

    @classmethod
    def paper_table1(cls, jitter_frac: float = 0.0) -> "CostModel":
        return cls(dict(PAPER_TABLE1_COSTS_NS), jitter_frac=jitter_frac)

    @classmethod
    def optimised_allocator(cls, jitter_frac: float = 0.0) -> "CostModel":
        return cls(dict(OPTIMISED_ALLOC_COSTS_NS), jitter_frac=jitter_frac)


class Probes:
    """Records per-stage durations; in model mode also accrues cost.

    Durations are *inclusive* of nested probes, exactly like rdtsc
    probe pairs around nested code would be: ``frame_alloc`` measured
    inside ``pt_processing`` contributes to both, matching the paper's
    observation that "most of the PT processing time is spent in the
    frame allocation".
    """

    def __init__(
        self,
        mode: str = "off",
        model: CostModel | None = None,
        stages: tuple[str, ...] | None = None,
    ) -> None:
        if mode not in ("off", "wall", "model"):
            raise I2OError(f"unknown probe mode {mode!r}")
        if mode == "model" and model is None:
            model = CostModel.paper_table1()
        self.mode = mode
        self.model = model
        self._samples: dict[str, list[int]] = {}
        self._stages = stages
        self._accrued_ns = 0
        self._jitter_rng = None
        if model is not None and model.jitter_frac > 0.0:
            from repro.sim.rng import RngStreams

            self._jitter_rng = RngStreams(model.jitter_seed).stream(
                "cost-jitter"
            )

    def _jittered(self, cost: int) -> int:
        """Apply the model's dispersion to one span's cost (>= 0)."""
        if self._jitter_rng is None or cost == 0:
            return cost
        assert self.model is not None
        factor = 1.0 + self.model.jitter_frac * float(
            self._jitter_rng.standard_normal()
        )
        return max(0, int(cost * factor))

    # -- recording ----------------------------------------------------------
    def measure(self, stage: str) -> "_Span":
        """Context manager for one probe span.

        ``off`` mode returns a shared no-op object so the disabled
        probes cost two dict-free method calls per span — this sits on
        the per-message hot path of every executive.
        """
        if self.mode == "off":
            return _NULL_SPAN
        if self.mode == "wall":
            return _WallSpan(self, stage)
        return _ModelSpan(self, stage)

    def _record(self, stage: str, duration_ns: int) -> None:
        if self._stages is not None and stage not in self._stages:
            return
        self._samples.setdefault(stage, []).append(duration_ns)

    # -- model-mode ledger -------------------------------------------------
    def drain_accrued_ns(self) -> int:
        """Return and reset virtual CPU time accrued since last drain."""
        ns, self._accrued_ns = self._accrued_ns, 0
        return ns

    def charge(self, stage: str, ns: int) -> None:
        """Impose an explicit cost (model mode only): used by hardware
        models for costs that are parameters of the *hardware* rather
        than of the framework (e.g. FIFO queue management, §7)."""
        if self.mode == "model":
            self._accrued_ns += ns
            self._record(stage, ns)

    @property
    def accrued_ns(self) -> int:
        """Peek at the undrained virtual CPU time (model mode).

        Simulation-plane transports read this at transmit time so the
        wire injection happens *after* the CPU work that preceded it —
        that serialisation is exactly the framework overhead the
        paper's figure 6 isolates.
        """
        return self._accrued_ns

    # -- analysis ----------------------------------------------------------
    def samples(self, stage: str) -> np.ndarray:
        return np.asarray(self._samples.get(stage, ()), dtype=np.int64)

    def median_us(self, stage: str) -> float:
        """Median stage duration in microseconds (Table 1 reports medians)."""
        data = self.samples(stage)
        if not len(data):
            raise I2OError(f"no samples for stage {stage!r}")
        return float(np.median(data)) / 1000.0

    def mean_us(self, stage: str) -> float:
        data = self.samples(stage)
        if not len(data):
            raise I2OError(f"no samples for stage {stage!r}")
        return float(np.mean(data)) / 1000.0

    def count(self, stage: str) -> int:
        return len(self._samples.get(stage, ()))

    def stage_names(self) -> list[str]:
        return sorted(self._samples)

    def reset(self) -> None:
        self._samples.clear()
        self._accrued_ns = 0


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _WallSpan:
    __slots__ = ("_probes", "_stage", "_start")

    def __init__(self, probes: Probes, stage: str) -> None:
        self._probes = probes
        self._stage = stage

    def __enter__(self) -> None:
        self._start = time.perf_counter_ns()

    def __exit__(self, *exc: object) -> None:
        self._probes._record(self._stage, time.perf_counter_ns() - self._start)


class _ModelSpan:
    """Imposes the stage's exclusive cost; the recorded duration is
    inclusive of nested stages, like rdtsc probe pairs around nested
    code would be."""

    __slots__ = ("_probes", "_stage", "_start_accrued")

    def __init__(self, probes: Probes, stage: str) -> None:
        self._probes = probes
        self._stage = stage

    def __enter__(self) -> None:
        self._start_accrued = self._probes._accrued_ns

    def __exit__(self, *exc: object) -> None:
        probes = self._probes
        assert probes.model is not None
        probes._accrued_ns += probes._jittered(probes.model.cost(self._stage))
        probes._record(self._stage, probes._accrued_ns - self._start_accrued)


_Span = _NullSpan | _WallSpan | _ModelSpan
