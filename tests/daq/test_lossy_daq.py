"""The event builder on an unreliable wire.

Drops anywhere in the DAQ protocol (readout commands, allocations,
fragment requests or replies, completions, clears) stall individual
events; the event manager's timeout/reassignment machinery must
recover all of them.  This is the whole fault-tolerance story working
together: timers as messages, failure recovery, buffer conservation.
"""

from __future__ import annotations

from repro.core.executive import Executive
from repro.daq import BuilderUnit, EventManager, ReadoutUnit, TriggerSource
from repro.dataflow import wire_dataflow
from repro.transports.agent import PeerTransportAgent
from repro.transports.faulty import FaultPlan, FaultyLoopbackTransport
from repro.transports.loopback import LoopbackNetwork


class _ManualClock:
    def __init__(self) -> None:
        self.t = 0

    def now_ns(self) -> int:
        return self.t


def build_lossy_daq(drop_rate: float, *, seed: int = 7):
    network = LoopbackNetwork()
    plan = FaultPlan(drop_rate=drop_rate)
    cluster, clocks = {}, {}
    for node in range(5):
        clock = _ManualClock()
        exe = Executive(node=node, clock=clock)
        PeerTransportAgent.attach(exe).register(
            FaultyLoopbackTransport(network, plan, seed=seed + node),
            default=True,
        )
        cluster[node], clocks[node] = exe, clock

    evm = EventManager(event_timeout_ns=5_000, max_reassignments=30)
    trigger = TriggerSource()
    cluster[0].install(evm)
    cluster[0].install(trigger)
    rus = {i: ReadoutUnit(ru_id=i, mean_fragment=256) for i in (0, 1)}
    for i, ru in rus.items():
        cluster[1 + i].install(ru)
    bus = {i: BuilderUnit(bu_id=i) for i in (0, 1)}
    for i, bu in bus.items():
        cluster[3 + i].install(bu)
    wire_dataflow(cluster, backpressure=False)
    return cluster, clocks, evm, trigger, rus, bus


def run(cluster, clocks, ticks: int, step_ns: int = 1000) -> None:
    for _ in range(ticks):
        for clock in clocks.values():
            clock.t += step_ns
        for _ in range(10_000):
            if not any(exe.step() for exe in cluster.values()):
                break


def test_all_events_built_despite_drops():
    cluster, clocks, evm, trigger, rus, bus = build_lossy_daq(drop_rate=0.08)
    trigger.fire_burst(15)
    run(cluster, clocks, ticks=600)
    assert evm.completed == 15
    assert evm.lost_events == []
    assert evm.reassignments > 0  # drops actually forced recovery
    for exe in cluster.values():
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0


def test_loss_free_plan_needs_no_recovery():
    cluster, clocks, evm, trigger, rus, bus = build_lossy_daq(drop_rate=0.0)
    trigger.fire_burst(10)
    run(cluster, clocks, ticks=5)
    assert evm.completed == 10
    assert evm.reassignments == 0


def test_deterministic_given_seed():
    def outcome():
        cluster, clocks, evm, trigger, rus, bus = build_lossy_daq(
            drop_rate=0.1, seed=21
        )
        trigger.fire_burst(10)
        run(cluster, clocks, ticks=500)
        return evm.completed, evm.reassignments

    assert outcome() == outcome()
