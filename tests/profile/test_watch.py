"""Slow-frame auto-capture: budgets, trips, spills."""

from __future__ import annotations

import pytest

from repro.core.device import FunctionalListener, Listener
from repro.core.executive import Executive
from repro.flightrec import FlightRecorder, load_dump
from repro.flightrec.records import EV_SLOW_FRAME
from repro.i2o.errors import I2OError
from repro.profile.watch import SlowFrameWatch


class _ManualClock:
    def __init__(self) -> None:
        self.t = 0

    def now_ns(self) -> int:
        return self.t


def slow_dispatch_exe(budget_ns=10_000, cost_ns=50_000, **watch_kwargs):
    """An executive whose echo handler 'takes' ``cost_ns`` on a manual
    clock, with a slow-frame watch armed at ``budget_ns``."""
    clock = _ManualClock()
    exe = Executive(node=0, clock=clock)
    watch = exe.attach(SlowFrameWatch(budget_ns, **watch_kwargs))

    def slow(frame):
        if not frame.is_reply:
            clock.t += cost_ns

    tid = exe.install(FunctionalListener(name="slow", handlers={0x1: slow}))
    sender = Listener("sender")
    exe.install(sender)

    def fire():
        sender.send(tid, b"", xfunction=0x1)
        exe.run_until_idle()

    return exe, watch, fire


class TestValidation:
    def test_budget_must_be_positive(self):
        with pytest.raises(I2OError, match="budget must be positive"):
            SlowFrameWatch(0)

    def test_attach_twice_raises(self):
        exe = Executive(node=0)
        exe.attach(SlowFrameWatch(1000))
        with pytest.raises(I2OError, match="already has a slow-frame"):
            exe.attach(SlowFrameWatch(1000))

    def test_detach_restores_off_mode(self):
        exe = Executive(node=0)
        watch = exe.attach(SlowFrameWatch(1000))
        exe.detach(watch)
        assert exe.observers == ()


class TestTrips:
    def test_budget_overrun_trips(self):
        _exe, watch, fire = slow_dispatch_exe()
        fire()
        assert watch.trips == 1

    def test_within_budget_does_not_trip(self):
        _exe, watch, fire = slow_dispatch_exe(
            budget_ns=10_000, cost_ns=5_000
        )
        fire()
        assert watch.trips == 0

    def test_trip_counters_exported_as_gauges(self):
        _exe, watch, fire = slow_dispatch_exe()
        fire()
        snap = _exe.metrics.snapshot()
        assert snap["prof_slow_frames_total"] == 1
        assert snap["prof_slow_spills_total"] == 0  # no recorder attached


class TestCapture:
    def _recorded(self, tmp_path, **watch_kwargs):
        clock = _ManualClock()
        exe = Executive(node=0, clock=clock)
        exe.attach(FlightRecorder(capacity=128, dump_dir=tmp_path))
        watch = exe.attach(SlowFrameWatch(10_000, **watch_kwargs))

        def slow(frame):
            if not frame.is_reply:
                clock.t += 50_000

        tid = exe.install(
            FunctionalListener(name="slow", handlers={0x1: slow})
        )
        sender = Listener("sender")
        exe.install(sender)

        def fire():
            sender.send(tid, b"", xfunction=0x1)
            exe.run_until_idle()

        return exe, watch, fire

    def test_overrun_records_ev_slow_frame_and_spills(self, tmp_path):
        exe, watch, fire = self._recorded(tmp_path)
        fire()
        assert watch.spills == 1
        dump = load_dump(exe.flightrec.dump_path())
        assert dump.reason == "slow-frame"
        (record,) = dump.of_kind(EV_SLOW_FRAME)
        assert record.c >= 50_000  # measured duration rides the record

    def test_spills_are_capped_but_trips_keep_counting(self, tmp_path):
        _exe, watch, fire = self._recorded(tmp_path, max_spills=1)
        fire()
        fire()
        fire()
        assert watch.trips == 3
        assert watch.spills == 1

    def test_spill_on_trip_false_records_without_spilling(self, tmp_path):
        exe, watch, fire = self._recorded(tmp_path, spill_on_trip=False)
        fire()
        assert watch.trips == 1
        assert watch.spills == 0
        # The event is still in the live ring for a later spill.
        assert not exe.flightrec.dump_path().exists()

    def test_no_flightrec_still_counts(self):
        _exe, watch, fire = slow_dispatch_exe()
        fire()
        fire()
        assert watch.trips == 2
        assert watch.spills == 0
