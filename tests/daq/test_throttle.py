"""The event builder's admission window: the trigger edge's credits.

The EVM holds each ``daq.trigger`` credit until its event is finished,
so the edge's capacity bounds the events in flight and a trigger the
window refuses sheds at the source, as the trigger's dead time.
"""

from __future__ import annotations

import pytest

from repro.config.bootstrap import BootstrapError, bootstrap
from repro.daq.protocol import MT_TRIGGER
from repro.dataflow.examples import event_builder_spec

from tests.conftest import assert_no_leaks, pump
from tests.daq.test_eventbuilder import wire_daq


def feed(trigger, total):
    """Fire until ``total`` triggers went out or the window refuses one."""
    while trigger.fired < total and trigger.fire() is not None:
        pass


class StepTracker:
    """Pumps one executive step at a time so we can observe the
    in-flight high-watermark mid-run."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.max_in_flight_seen = 0

    def run(self, evm, trigger, total, rounds=100_000):
        for _ in range(rounds):
            feed(trigger, total)
            worked = any(exe.step() for exe in self.cluster.values())
            self.max_in_flight_seen = max(
                self.max_in_flight_seen, evm.in_flight
            )
            if not worked and trigger.fired == total:
                return


def test_in_flight_never_exceeds_limit(five_nodes):
    evm, trigger, rus, bus = wire_daq(five_nodes, window=3)
    tracker = StepTracker(five_nodes)
    tracker.run(evm, trigger, 20)
    assert evm.completed == 20  # throttled, not lost
    assert tracker.max_in_flight_seen <= 3
    assert trigger.shed > 0  # the window did shut


def test_unthrottled_burst_floods(five_nodes):
    evm, trigger, rus, bus = wire_daq(five_nodes)
    tracker = StepTracker(five_nodes)
    trigger.fire_burst(20)
    tracker.run(evm, trigger, 20)
    assert evm.completed == 20
    assert tracker.max_in_flight_seen > 3  # the contrast with the limit


def test_window_dead_time_is_counted_at_the_trigger(five_nodes):
    evm, trigger, rus, bus = wire_daq(five_nodes, window=1)
    assert trigger.fire_burst(5) == [1]
    pump(five_nodes)
    assert evm.completed == 1
    assert trigger.export_counters()["shed"] == 4
    assert five_nodes[0].dataflow.shed(0) == 4
    assert trigger.fire() == 2  # the finished event gave its credit back
    pump(five_nodes)
    assert evm.completed == 2
    assert_no_leaks(five_nodes)


def test_a_reset_evm_gives_its_window_back(five_nodes):
    """A reset forgets the events in flight, so their credits go back:
    the window does not shrink for good."""
    evm, trigger, rus, bus = wire_daq(five_nodes, window=2)
    trigger.fire_burst(2)
    five_nodes[0].run_until_idle()  # the EVM admits both, nothing finishes
    assert (evm.in_flight, trigger.fire()) == (2, None)
    evm.on_reset()
    assert trigger.fire_burst(3) == [3, 4]


def test_bad_limit_rejected():
    with pytest.raises(BootstrapError, match="edge_credits"):
        bootstrap(event_builder_spec(1, 1, dataflow={"edge_credits": 0}))


def test_ru_buffers_bounded_by_throttle(five_nodes):
    """The point of back-pressure: readout buffers cannot grow past
    the in-flight window."""
    evm, trigger, rus, bus = wire_daq(five_nodes, window=2)
    max_buffered = 0

    for _ in range(100_000):
        feed(trigger, 30)
        worked = any(exe.step() for exe in five_nodes.values())
        max_buffered = max(
            max_buffered, max(ru.buffered_events for ru in rus.values())
        )
        if not worked and trigger.fired == 30:
            break
    assert evm.completed == 30
    assert max_buffered <= 2


@pytest.mark.parametrize("n", [2, 4])
def test_a_burst_past_the_window_strands_no_event(n):
    """``fire_burst(1000)`` against the default window: what went out
    is built, what did not is the trigger's own shed, and nothing is
    left half-done anywhere."""
    cluster = bootstrap(event_builder_spec(n, n))
    trigger, evm = cluster.device("trigger"), cluster.device("evm")
    window = next(iter(trigger.routes_for(MT_TRIGGER).edges.values())).capacity
    trigger.fire_burst(1000)
    cluster.pump()
    assert (trigger.fired, trigger.shed) == (window, 1000 - window)
    assert evm.completed == trigger.fired and evm.in_flight == 0
    for i in range(n):
        ru = cluster.device(f"ru{i}")
        assert (ru.buffered_events, ru.parked_requests) == (0, 0)
        assert cluster.device(f"bu{i}").export_counters()["in_flight"] == 0
    ledger = cluster.dataflow_ledger
    assert ledger.shed(0) == trigger.shed
    assert all(ledger.park_overflow(node) == 0 for node in cluster.executives)
    # The window re-opened: the next burst goes out whole again.
    trigger.fire_burst(window)
    cluster.pump()
    assert evm.completed == trigger.fired == 2 * window
    assert_no_leaks(cluster.executives)
