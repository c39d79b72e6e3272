"""The simulation plane's cost tables: the paper's Table 1 as data.

The medians of the paper's §5 time probes are what a sim-plane node
*imposes*: the :class:`~repro.core.simnode.CostLedger` charges one
:class:`CostModel` entry per lifecycle fact the executive reports
(DESIGN §13 says which fact carries which stage).  The native plane
carries no probes — its stage costs come from the ring (``python -m
repro.diag where``).

Stages are named after Table 1 rows:

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

from dataclasses import dataclass, field

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
    """Per-stage exclusive CPU costs for the simulation plane."""

    costs_ns: dict[str, int] = field(
        default_factory=lambda: dict(PAPER_TABLE1_COSTS_NS)
    )
    default_ns: int = 0

    def cost(self, stage: str) -> int:
        return self.costs_ns.get(stage, self.default_ns)

    @classmethod
    def paper_table1(cls) -> "CostModel":
        return cls(dict(PAPER_TABLE1_COSTS_NS))

    @classmethod
    def optimised_allocator(cls) -> "CostModel":
        return cls(dict(OPTIMISED_ALLOC_COSTS_NS))
