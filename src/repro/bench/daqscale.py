"""Experiment X5 — the paper's workload at cluster scale.

Paper §1/§4 (footnote): XDAQ exists for DAQ systems where *"n nodes
talk to m other nodes in both directions, thus resulting in
communication channels that cross over"*, at "hundreds kHz message
rates".  This experiment runs the full event builder
(:mod:`repro.daq`) on the simulation plane — every node an executive
with the paper-calibrated cost model, every link the modelled
Myrinet/GM fabric — and measures built-event rate and aggregate
assembled bandwidth as the RU×BU configuration grows.

Expected shape: throughput grows with builder count until the shared
fabric (or the single event manager) saturates — the scaling argument
for distributing the processing task in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.report import format_table
from repro.config.bootstrap import bootstrap
from repro.dataflow.examples import event_builder_spec
from repro.hw.clock import SimClock
from repro.sim.kernel import Simulator

DEFAULT_CONFIGS = ((1, 1), (2, 2), (4, 2), (4, 4))


@dataclass
class DaqScaleResult:
    configs: list[tuple[int, int]] = field(default_factory=list)
    events_per_s: list[float] = field(default_factory=list)
    assembled_mb_s: list[float] = field(default_factory=list)
    wire_messages: list[int] = field(default_factory=list)

    def report(self) -> str:
        rows = [
            (f"{n_ru}x{n_bu}", f"{eps:,.0f}", f"{mbs:.1f}", msgs)
            for (n_ru, n_bu), eps, mbs, msgs in zip(
                self.configs, self.events_per_s, self.assembled_mb_s,
                self.wire_messages,
            )
        ]
        return format_table(
            ["RUxBU", "events/s", "assembled MB/s", "wire msgs"],
            rows,
            title="X5: event-builder throughput at cluster scale "
            "(sim plane, paper cost model)",
        )


def run_config(
    n_ru: int,
    n_bu: int,
    *,
    events: int = 200,
    mean_fragment: int = 2048,
) -> tuple[float, float, int]:
    """One configuration; returns (events/s, assembled MB/s, wire msgs)."""
    sim = Simulator()
    # Uncapped routes: every trigger fires in one burst at t=0, far
    # past any credit window.
    cluster = bootstrap(event_builder_spec(
        n_ru, n_bu, transport="simgm", mean_fragment=mean_fragment,
        dataflow={"backpressure": False},
    ), clock=SimClock(sim))
    evm, trigger = cluster.device("evm"), cluster.device("trigger")
    bus = [cluster.device(f"bu{i}") for i in range(n_bu)]

    # Burst-drive: all triggers at t=0; batch completion time = last
    # event's completion, so rate = events / makespan.
    sim.at(0, lambda: trigger.fire_burst(events))
    sim.run(max_events=50_000_000)
    if evm.completed != events:
        raise RuntimeError(
            f"{n_ru}x{n_bu}: only {evm.completed}/{events} events built"
        )
    makespan_s = sim.now / 1e9
    assembled_bytes = sum(bu.bytes_built for bu in bus)
    (gm,) = cluster.executive(0).pta.transports()
    return (
        events / makespan_s,
        assembled_bytes / makespan_s / 1e6,
        gm.fabric.stats.messages,
    )


def run_daqscale(
    configs: tuple[tuple[int, int], ...] = DEFAULT_CONFIGS,
    events: int = 200,
    mean_fragment: int = 2048,
) -> DaqScaleResult:
    result = DaqScaleResult()
    for n_ru, n_bu in configs:
        eps, mbs, msgs = run_config(
            n_ru, n_bu, events=events, mean_fragment=mean_fragment
        )
        result.configs.append((n_ru, n_bu))
        result.events_per_s.append(eps)
        result.assembled_mb_s.append(mbs)
        result.wire_messages.append(msgs)
    return result
