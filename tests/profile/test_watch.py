"""Slow-frame auto-capture: the flight recorder's dispatch budget —
trips, the records they write, and capped spills."""

from __future__ import annotations

import pytest

from repro.core.device import FunctionalListener, Listener
from repro.core.executive import Executive
from repro.core.telemetry import node_snapshot
from repro.flightrec.dump import load_dump
from repro.flightrec.recorder import MAX_INCIDENT_SPILLS, FlightRecorder
from repro.flightrec.records import EV_DISPATCH, EV_SLOW_FRAME, FlightRecError
from repro.i2o.errors import I2OError

from tests.conftest import ManualClock


def slow_dispatch_exe(budget_ns=10_000, cost_ns=50_000, dump_dir=None):
    """An executive whose handler 'takes' ``cost_ns`` on a manual clock,
    with a recorder holding a ``budget_ns`` dispatch budget."""
    clock = ManualClock()
    exe = Executive(node=0, clock=clock)
    recorder = exe.attach(FlightRecorder(
        capacity=128, dump_dir=dump_dir, budget_ns=budget_ns,
    ))

    def slow(frame):
        if not frame.is_reply:
            clock.t += cost_ns

    tid = exe.install(FunctionalListener(name="slow", handlers={0x1: slow}))
    sender = Listener("sender")
    exe.install(sender)

    def fire():
        sender.send(tid, b"", xfunction=0x1)
        exe.run_until_idle()

    return exe, recorder, fire


class TestValidation:
    def test_budget_must_be_positive(self):
        # 0 is the off value; only a negative budget is refused.
        with pytest.raises(FlightRecError, match="budget must be >= 0"):
            FlightRecorder(budget_ns=-1)
        _exe, recorder, fire = slow_dispatch_exe(budget_ns=0)
        fire()
        assert recorder.slow_frames == 0
        assert not [r for r in recorder.records if r.kind == EV_SLOW_FRAME]

    def test_attach_twice_raises(self):
        exe = Executive(node=0)
        exe.attach(FlightRecorder(budget_ns=1000))
        with pytest.raises(I2OError, match="already has a flight recorder"):
            exe.attach(FlightRecorder(budget_ns=1000))

    def test_detach_restores_off_mode(self):
        exe = Executive(node=0)
        recorder = exe.attach(FlightRecorder(budget_ns=1000))
        exe.detach(recorder)
        assert exe.observers == ()
        assert exe.flightrec is None


class TestTrips:
    def test_budget_overrun_trips(self):
        _exe, recorder, fire = slow_dispatch_exe()
        fire()
        assert recorder.slow_frames == 1

    def test_within_budget_does_not_trip(self):
        _exe, recorder, fire = slow_dispatch_exe(
            budget_ns=10_000, cost_ns=5_000
        )
        fire()
        assert recorder.slow_frames == 0

    def test_trip_counters_exported_as_gauges(self):
        exe, _recorder, fire = slow_dispatch_exe()
        fire()
        snap = node_snapshot(exe)
        assert snap["prof_slow_frames_total"] == 1
        assert snap["flightrec_spills_total"] == 0  # diskless: no spill


class TestCapture:
    def test_overrun_records_ev_slow_frame_and_spills(self, tmp_path):
        exe, recorder, fire = slow_dispatch_exe(dump_dir=tmp_path)
        fire()
        assert recorder.spills == 1
        dump = load_dump(exe.flightrec.dump_path())
        assert dump.reason == "slow-frame"
        (record,) = dump.of_kind(EV_SLOW_FRAME)
        assert record.c >= 50_000  # measured duration rides the record
        # The capture follows that dispatch's own record, same context.
        kinds = [r.kind for r in dump.records]
        assert kinds.index(EV_SLOW_FRAME) > kinds.index(EV_DISPATCH)
        (dispatch,) = [r for r in dump.records
                       if r.kind == EV_DISPATCH and r.a == record.a]
        assert dispatch.d == record.c

    def test_spills_are_capped_but_trips_keep_counting(self, tmp_path):
        _exe, recorder, fire = slow_dispatch_exe(dump_dir=tmp_path)
        for _ in range(MAX_INCIDENT_SPILLS + 2):
            fire()
        assert recorder.slow_frames == MAX_INCIDENT_SPILLS + 2
        assert recorder.spills == MAX_INCIDENT_SPILLS
        assert recorder.suppressed_spills == 2

    def test_the_cap_is_shared_with_handler_errors(self, tmp_path):
        clock = ManualClock()
        exe = Executive(node=0, clock=clock)
        recorder = exe.attach(FlightRecorder(
            capacity=128, dump_dir=tmp_path, budget_ns=10_000,
        ))

        def fail(frame):
            raise RuntimeError("boom")

        def slow(frame):
            clock.t += 50_000

        failing = exe.install(
            FunctionalListener(name="fail", handlers={0x1: fail})
        )
        slowdev = exe.install(
            FunctionalListener(name="slow", handlers={0x1: slow})
        )
        sender = Listener("sender")
        exe.install(sender)
        for _ in range(MAX_INCIDENT_SPILLS):
            sender.send(failing, b"", xfunction=0x1)
        sender.send(slowdev, b"", xfunction=0x1)
        exe.run_until_idle()
        assert recorder.spills == MAX_INCIDENT_SPILLS
        assert load_dump(recorder.dump_path()).reason == "dispatch-exception"
        assert recorder.slow_frames == 1
        assert recorder.suppressed_spills >= 1
