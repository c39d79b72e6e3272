"""Event-manager trigger throttling (back-pressure)."""

from __future__ import annotations

import pytest

from repro.daq.manager import EventManager
from repro.i2o.errors import I2OError

from tests.conftest import assert_no_leaks, pump
from tests.daq.test_eventbuilder import wire_daq


class StepTracker:
    """Pumps one executive step at a time so we can observe the
    in-flight high-watermark mid-run."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.max_in_flight_seen = 0

    def run(self, evm, rounds=100_000):
        for _ in range(rounds):
            worked = any(exe.step() for exe in self.cluster.values())
            self.max_in_flight_seen = max(
                self.max_in_flight_seen, evm.in_flight
            )
            if not worked:
                return


def test_in_flight_never_exceeds_limit(five_nodes):
    evm, trigger, rus, bus = wire_daq(five_nodes)
    evm.max_in_flight = 3
    tracker = StepTracker(five_nodes)
    trigger.fire_burst(20)
    tracker.run(evm)
    assert evm.completed == 20  # throttled, not lost
    assert tracker.max_in_flight_seen <= 3


def test_unthrottled_burst_floods(five_nodes):
    evm, trigger, rus, bus = wire_daq(five_nodes)
    tracker = StepTracker(five_nodes)
    trigger.fire_burst(20)
    tracker.run(evm)
    assert evm.completed == 20
    assert tracker.max_in_flight_seen > 3  # the contrast with the limit


def test_throttled_counter_visible_via_params(five_nodes):
    evm, trigger, rus, bus = wire_daq(five_nodes)
    evm.max_in_flight = 1
    trigger.fire_burst(5)
    # Before any pumping the EVM hasn't seen the triggers yet; after
    # the run everything must have drained.
    pump(five_nodes)
    assert evm.completed == 5
    assert evm.export_counters()["throttled"] == 0
    assert_no_leaks(five_nodes)


def test_bad_limit_rejected():
    with pytest.raises(I2OError):
        EventManager(max_in_flight=0)


def test_ru_buffers_bounded_by_throttle(five_nodes):
    """The point of back-pressure: readout buffers cannot grow past
    the in-flight window."""
    evm, trigger, rus, bus = wire_daq(five_nodes)
    evm.max_in_flight = 2
    max_buffered = 0

    trigger.fire_burst(30)
    for _ in range(100_000):
        worked = any(exe.step() for exe in five_nodes.values())
        max_buffered = max(
            max_buffered, max(ru.buffered_events for ru in rus.values())
        )
        if not worked:
            break
    assert evm.completed == 30
    assert max_buffered <= 2
