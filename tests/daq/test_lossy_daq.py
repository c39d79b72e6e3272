"""The event builder on an unreliable wire.

Drops anywhere in the DAQ protocol (readout commands, allocations,
fragment requests or replies, completions, clears) stall individual
events; the event manager's timeout/reassignment machinery must
recover all of them.  This is the whole fault-tolerance story working
together: timers as messages, failure recovery, buffer conservation.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.config.bootstrap import bootstrap
from repro.daq.protocol import EVENT_ID, XF_ABANDON
from repro.dataflow.examples import event_builder_spec

from tests.conftest import ManualClock


def build_lossy_daq(drop_rate: float, *, seed: int = 7):
    spec = event_builder_spec(
        2, 2, mean_fragment=256, dataflow={"backpressure": False}
    )
    spec["nodes"][0]["devices"][1]["kwargs"] = {
        "event_timeout_ns": 5_000, "max_reassignments": 30,
    }
    spec["faults"] = {"drop_rate": drop_rate, "seed": seed}
    cluster = bootstrap(spec, clock=ManualClock())
    rus = {i: cluster.device(f"ru{i}") for i in (0, 1)}
    bus = {i: cluster.device(f"bu{i}") for i in (0, 1)}
    return (cluster, cluster.device("evm"), cluster.device("trigger"),
            rus, bus)


def run(cluster, ticks: int, step_ns: int = 1000) -> None:
    for _ in range(ticks):
        cluster.clock.t += step_ns
        cluster.pump()


def test_all_events_built_despite_drops():
    cluster, evm, trigger, rus, bus = build_lossy_daq(drop_rate=0.08)
    trigger.fire_burst(15)
    run(cluster, ticks=600)
    assert evm.completed == 15
    assert evm.lost_events == []
    assert evm.reassignments > 0  # drops actually forced recovery
    for exe in cluster.executives.values():
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0


def test_loss_free_plan_needs_no_recovery():
    cluster, evm, trigger, rus, bus = build_lossy_daq(drop_rate=0.0)
    trigger.fire_burst(10)
    run(cluster, ticks=5)
    assert evm.completed == 10
    assert evm.reassignments == 0


def test_deterministic_given_seed():
    def outcome():
        cluster, evm, trigger, rus, bus = build_lossy_daq(
            drop_rate=0.1, seed=21
        )
        trigger.fire_burst(10)
        run(cluster, ticks=500)
        return evm.completed, evm.reassignments

    assert outcome() == outcome()


def _spy_on_abandon(evm, bus):
    """(sent, received) ``daq.abandon`` multisets of (event, builder)."""
    sent, received = Counter(), Counter()
    emit = evm._abandon

    def sending(event_id, bu_id):
        sent[event_id, bu_id] += 1
        emit(event_id, bu_id)

    evm._abandon = sending
    for bu in bus.values():
        def receiving(frame, bu=bu, handle=bu._on_abandon):
            received[EVENT_ID.unpack_from(frame.payload, 0)[0], bu.bu_id] += 1
            handle(frame)

        bu.bind(XF_ABANDON, receiving)
    return sent, received


@pytest.mark.parametrize("seed", [6, 7, 8, 10])
def test_no_partial_event_survives_recovery(seed):
    """Every event the EVM took away from a builder on a timeout is
    dropped there too.  ``daq.abandon`` is as droppable as any message
    and is not retried, so a partial left at the end is one whose
    abandon the wire ate (seed 6 loses three, the others none; at
    33283f9 every one of these runs ends with partials)."""
    cluster, evm, trigger, rus, bus = build_lossy_daq(
        drop_rate=0.08, seed=seed
    )
    sent, received = _spy_on_abandon(evm, bus)
    trigger.fire_burst(15)
    run(cluster, ticks=600)
    assert evm.completed == 15 and sum(received.values()) > 0
    left = Counter(
        (event_id, bu.bu_id) for bu in bus.values() for event_id in bu._pending
    )
    assert not left - (sent - received)


def _starve_builder(cluster, evm, trigger, bus, *, timeouts: int):
    """One event whose second fragment never arrives: ru1's node is cut
    off until ``timeouts`` completion deadlines have passed."""
    cluster.executive(2).pta.transports()[0].partition()
    trigger.fire()
    run(cluster, ticks=1)
    assert [len(bu._pending.get(1, ())) for bu in bus.values()] == [1, 0]
    run(cluster, ticks=5 * timeouts)


def test_reassigned_event_is_abandoned_at_the_old_builder():
    cluster, evm, trigger, rus, bus = build_lossy_daq(drop_rate=0.0)
    _starve_builder(cluster, evm, trigger, bus, timeouts=1)
    assert evm.reassignments == 1
    # bu0 dropped its one-fragment partial; bu1 now holds the event.
    assert [len(bu._pending.get(1, ())) for bu in bus.values()] == [0, 1]
    assert 1 not in bus[0]._pending
    # Healed, the event completes on a later round (ru1 has yet to
    # hear of it) and whoever lost it on the way holds nothing.
    cluster.executive(2).pta.transports()[0].heal()
    run(cluster, ticks=30)
    assert evm.completed == 1 and evm.lost_events == []
    assert [bu.export_counters()["in_flight"] for bu in bus.values()] == [0, 0]
    for exe in cluster.executives.values():
        assert exe.pool.in_flight == 0


def test_lost_event_is_abandoned_at_its_last_builder():
    cluster, evm, trigger, rus, bus = build_lossy_daq(drop_rate=0.0)
    evm.max_reassignments = 1
    _starve_builder(cluster, evm, trigger, bus, timeouts=3)
    assert evm.lost_events == [1]
    assert [bu.export_counters()["in_flight"] for bu in bus.values()] == [0, 0]


def test_fault_free_path_sends_no_abandon(monkeypatch):
    cluster, evm, trigger, rus, bus = build_lossy_daq(drop_rate=0.0)
    sent = []
    monkeypatch.setattr(evm, "_abandon", lambda *a: sent.append(a))
    trigger.fire_burst(10)
    run(cluster, ticks=5)
    assert evm.completed == 10 and sent == []
    # per event: 2 readout, 1 allocate, 2 requests, 2 replies, 1 done,
    # 2 clear
    wire = sum(exe.pta.transports()[0].frames_sent for exe in cluster.executives.values())
    assert wire == 10 * 10
