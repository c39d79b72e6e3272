"""Builder-failure recovery: event timeouts and reassignment."""

from __future__ import annotations

import pytest

from repro.daq.builder import BuilderUnit
from repro.i2o.errors import I2OError

from tests.conftest import ManualClock, assert_no_leaks, make_loopback_cluster
from tests.daq.test_eventbuilder import wire_daq
from tests.daq.test_throttle import feed


def build_recoverable(timeout_ns=1000, max_reassignments=3, window=None):
    """Standard 5-node DAQ, manual clock on the EVM node so tests can
    force event deadlines to pass."""
    cluster = make_loopback_cluster(5)
    clock = ManualClock()
    cluster[0].clock = clock
    evm, trigger, rus, bus = wire_daq(cluster, window=window)
    evm.event_timeout_ns = timeout_ns
    evm.max_reassignments = max_reassignments
    return cluster, clock, evm, trigger, rus, bus


def run(cluster, clock, ticks=50, step_ns=1000):
    for tick in range(ticks):
        clock.t += step_ns
        for _ in range(10_000):
            if not any(exe.step() for exe in cluster.values()):
                break


class TestHealthyPathUnchanged:
    def test_timeouts_armed_but_never_fire(self):
        cluster, clock, evm, trigger, rus, bus = build_recoverable(
            timeout_ns=10_000_000
        )
        trigger.fire_burst(10)
        run(cluster, clock, ticks=5)
        assert evm.completed == 10
        assert evm.reassignments == 0
        assert evm.lost_events == []
        assert len(cluster[0].timers) == 0  # all deadlines cancelled
        assert_no_leaks(cluster)


class TestBuilderFailure:
    def _break_builder(self, bu: BuilderUnit) -> None:
        """Make a builder swallow allocations silently (crashed)."""
        from repro.daq.protocol import XF_ALLOCATE

        bu.bind(XF_ALLOCATE, lambda f: None)

    def test_events_reassigned_from_dead_builder(self):
        cluster, clock, evm, trigger, rus, bus = build_recoverable()
        self._break_builder(bus[0])  # builder 0 black-holes everything
        trigger.fire_burst(8)
        run(cluster, clock, ticks=30)
        assert evm.completed == 8  # every event recovered
        assert evm.reassignments >= 4  # the ones that hit builder 0
        assert bus[1].built == 8
        assert evm.lost_events == []
        assert_no_leaks(cluster)

    def test_all_builders_dead_events_declared_lost(self):
        cluster, clock, evm, trigger, rus, bus = build_recoverable(
            max_reassignments=2
        )
        for bu in bus.values():
            self._break_builder(bu)
        trigger.fire_burst(3)
        run(cluster, clock, ticks=40)
        assert evm.completed == 0
        assert sorted(evm.lost_events) == sorted(evm.completed_ids + [1, 2, 3])
        # Abandoned events must not leak readout buffers.
        for ru in rus.values():
            assert ru.buffered_events == 0
        assert_no_leaks(cluster)

    def test_recovery_respects_throttle(self):
        """A reassigned event keeps its trigger credit: the window
        holds across recovery."""
        cluster, clock, evm, trigger, rus, bus = build_recoverable(window=2)
        self._break_builder(bus[0])
        max_seen = 0
        for tick in range(60):
            feed(trigger, 10)
            clock.t += 1000
            for _ in range(10_000):
                if not any(exe.step() for exe in cluster.values()):
                    break
            max_seen = max(max_seen, evm.in_flight)
        assert evm.completed == 10
        assert max_seen <= 2

    def test_counters_expose_recovery(self):
        cluster, clock, evm, trigger, rus, bus = build_recoverable()
        self._break_builder(bus[0])
        trigger.fire_burst(4)
        run(cluster, clock, ticks=30)
        counters = evm.export_counters()
        assert int(counters["reassignments"]) >= 2
        assert counters["lost"] == 0


class TestValidation:
    def test_negative_timeout_rejected(self):
        from repro.daq.manager import EventManager

        with pytest.raises(I2OError):
            EventManager(event_timeout_ns=-1)
