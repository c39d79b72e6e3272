"""Experiment T1 — table 1: whitebox receive-path breakdown.

Runs the blackbox setup and reports the per-stage medians the echo
node's cost ledger charged next to the paper's values, plus the
cross-check the paper performs (sum of stage medians vs blackbox
overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.rawgm import GmPingPong
from repro.bench.pingpong import run_xdaq_gm_pingpong
from repro.bench.report import format_table
from repro.core.probes import CostModel
from repro.hw.myrinet import Fabric
from repro.sim.kernel import Simulator

#: Table 1 of the paper, in µs (medians of 100,000 samples).
PAPER_TABLE1_US = {
    "pt_processing": 2.92,
    "demultiplex": 0.22,
    "upcall": 0.47,
    "application": 3.60,
    "postprocess": 2.49,
    "frame_alloc": 2.18,
    "frame_free": 1.78,
}
PAPER_SUM_US = 9.53  # as printed; the rows themselves add to 9.70
PAPER_BLACKBOX_US = 8.9

#: Stages whose sum the paper cross-checks against the blackbox value.
SUM_STAGES = ("pt_processing", "demultiplex", "upcall", "application", "postprocess")

_ROW_LABELS = {
    "pt_processing": "PT GM processing",
    "demultiplex": "Demultiplexing to functor",
    "upcall": "Upcall of Functor",
    "application": "Application (incl. frameSend)",
    "postprocess": "Release frame, call postprocessing",
    "frame_alloc": "frameAlloc",
    "frame_free": "frameFree",
}


@dataclass
class Tab1Result:
    stage_medians_us: dict[str, float] = field(default_factory=dict)
    blackbox_overhead_us: float = 0.0

    @property
    def stage_sum_us(self) -> float:
        return sum(self.stage_medians_us[s] for s in SUM_STAGES)

    def report(self) -> str:
        rows = []
        for stage in SUM_STAGES:
            rows.append(
                (
                    _ROW_LABELS[stage],
                    f"{PAPER_TABLE1_US[stage]:.2f}",
                    f"{self.stage_medians_us.get(stage, float('nan')):.2f}",
                )
            )
        rows.append(
            ("Sum of application overhead", f"{PAPER_SUM_US:.2f}",
             f"{self.stage_sum_us:.2f}")
        )
        for stage in ("frame_alloc", "frame_free"):
            rows.append(
                (
                    _ROW_LABELS[stage],
                    f"{PAPER_TABLE1_US[stage]:.2f}",
                    f"{self.stage_medians_us.get(stage, float('nan')):.2f}",
                )
            )
        rows.append(
            ("Cross check: blackbox overhead", f"{PAPER_BLACKBOX_US:.2f}",
             f"{self.blackbox_overhead_us:.2f}")
        )
        return format_table(
            ["activity", "paper us", "measured us"],
            rows,
            title="Table 1 - microseconds spent in the XDAQ framework (medians)",
        )


def run_tab1(
    payload: int = 64,
    rounds: int = 1000,
    *,
    cost_model: CostModel | None = None,
) -> Tab1Result:
    model = cost_model or CostModel.paper_table1()
    ping = run_xdaq_gm_pingpong(payload, rounds, cost_model=model)
    # Blackbox cross-check at the same payload.
    sim = Simulator()
    fabric = Fabric(sim)
    gm = GmPingPong(sim, fabric, payload_size=payload, rounds=rounds)
    gm.start()
    sim.run()
    return Tab1Result(
        stage_medians_us=dict(ping.stage_medians_us),
        blackbox_overhead_us=ping.one_way_us_mean - gm.one_way_us(),
    )
