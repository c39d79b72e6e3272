"""The discrete-event kernel: ordering, processes, combinators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Process, SimError, Simulator, delay


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_events_fire_in_timestamp_order(self):
        sim = Simulator()
        fired = []
        sim.at(30, lambda: fired.append(30))
        sim.at(10, lambda: fired.append(10))
        sim.at(20, lambda: fired.append(20))
        sim.run()
        assert fired == [10, 20, 30]

    def test_ties_break_fifo_by_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in range(10):
            sim.at(5, lambda tag=tag: fired.append(tag))
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.at(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_after_is_relative(self):
        sim = Simulator()
        seen = []
        sim.at(100, lambda: sim.after(5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [105]

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.at(5, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimError):
            Simulator().after(-1, lambda: None)

    def test_run_until_stops_and_tiles(self):
        sim = Simulator()
        fired = []
        sim.at(10, lambda: fired.append(10))
        sim.at(50, lambda: fired.append(50))
        sim.run(until=20)
        assert fired == [10]
        assert sim.now == 20
        sim.run(until=60)
        assert fired == [10, 50]

    def test_run_max_events_budget(self):
        sim = Simulator()
        for t in range(10):
            sim.at(t, lambda: None)
        assert sim.run(max_events=3) == 3

    def test_cancel_prevents_execution(self):
        sim = Simulator()
        fired = []
        handle = sim.at(10, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_executed_counter(self):
        sim = Simulator()
        for t in range(7):
            sim.at(t, lambda: None)
        sim.run()
        assert sim.events_executed == 7

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                    max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_property_execution_is_sorted_stable(self, times):
        sim = Simulator()
        order = []
        for i, t in enumerate(times):
            sim.at(t, lambda i=i, t=t: order.append((t, i)))
        sim.run()
        assert order == sorted(order)  # time asc, then schedule order


class TestEvents:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        got = []
        ev = sim.event("e")
        ev.add_callback(got.append)
        ev.succeed(99)
        sim.run()
        assert got == [99]

    def test_double_fire_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimError):
            ev.succeed()

    def test_value_before_fire_raises(self):
        with pytest.raises(SimError):
            _ = Simulator().event().value

    def test_callback_after_fire_runs(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("late")
        got = []
        ev.add_callback(got.append)
        sim.run()
        assert got == ["late"]

    def test_any_of_first_wins(self):
        sim = Simulator()
        winner = []
        combined = sim.any_of([sim.timeout(20), sim.timeout(10)])
        combined.add_callback(winner.append)
        sim.run()
        assert winner == [(1, None)]
        assert sim.now == 20  # the losing timeout still fires


class TestProcesses:
    def test_process_delays_advance_time(self):
        sim = Simulator()
        trace = []

        def body():
            trace.append(sim.now)
            yield delay(100)
            trace.append(sim.now)
            yield delay(50)
            trace.append(sim.now)

        sim.process(body())
        sim.run()
        assert trace == [0, 100, 150]

    def test_process_waits_on_event_and_receives_value(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def body():
            value = yield ev
            got.append((sim.now, value))

        sim.process(body())
        sim.at(77, lambda: ev.succeed("ping"))
        sim.run()
        assert got == [(77, "ping")]

    def test_process_waits_on_process(self):
        sim = Simulator()

        def child():
            yield delay(10)
            return "result"

        def parent():
            value = yield sim.process(child())
            assert sim.now == 10
            return value

        p = sim.process(parent())
        sim.run()
        assert p.done.fired
        assert p.done.value == "result"

    def test_process_done_event_fires_with_return(self):
        sim = Simulator()

        def body():
            yield delay(1)
            return 42

        p = sim.process(body())
        sim.run()
        assert p.done.value == 42

    def test_bad_yield_type_raises(self):
        sim = Simulator()

        def body():
            yield "nonsense"

        sim.process(body())
        with pytest.raises(SimError):
            sim.run()

    def test_non_generator_rejected(self):
        with pytest.raises(SimError):
            Process(Simulator(), lambda: None)  # type: ignore[arg-type]

    def test_two_processes_interleave(self):
        sim = Simulator()
        trace = []

        def worker(name, period):
            for _ in range(3):
                yield delay(period)
                trace.append((sim.now, name))

        sim.process(worker("a", 10))
        sim.process(worker("b", 15))
        sim.run()
        # At t=30 both are due; b's wakeup was scheduled earlier (at 15)
        # so FIFO tie-breaking runs it first.
        assert trace == [
            (10, "a"), (15, "b"), (20, "a"), (30, "b"), (30, "a"), (45, "b"),
        ]
