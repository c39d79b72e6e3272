"""The dispatch-observer seam: balanced begin/end, ordering, off path."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.device import FunctionalListener, Listener
from repro.core.executive import Executive
from repro.core.observer import (
    OUTCOME_ABORTED,
    OUTCOME_HANDLER_ERROR,
    OUTCOME_OK,
    OUTCOME_VANISHED,
    OUTCOME_WATCHDOG,
    DispatchObserver,
    DispatchRecord,
)
from repro.core.tracing import is_trace_context
from repro.core.watchdog import HandlerWatchdog
from repro.flightrec.recorder import FlightRecorder
from repro.i2o.errors import I2OError

from tests.conftest import drain_queues

XFN = 0x1


class Recording(DispatchObserver):
    """Logs ``(name, "begin"|"end", copy)`` into a shared list.

    A record is lent for one dispatch only, so the log holds a copy of
    its fields taken at each call; a begin and its end share one copy,
    paired by the identity of the record they were lent."""

    def __init__(self, log: list, name: str = "") -> None:
        self.log = log
        self.name = name
        self._open: dict[int, SimpleNamespace] = {}

    def dispatch_begin(self, rec) -> None:
        copy = self._open[id(rec)] = SimpleNamespace()
        self.log.append((self.name, "begin", _copy_fields(rec, copy)))

    def dispatch_end(self, rec) -> None:
        copy = self._open.pop(id(rec))
        self.log.append((self.name, "end", _copy_fields(rec, copy)))


def _copy_fields(rec: DispatchRecord, into: SimpleNamespace) -> SimpleNamespace:
    for name in DispatchRecord.__slots__:
        setattr(into, name, getattr(rec, name))
    return into


class Second(Recording):
    """A distinct class: one observer per class and executive."""


class _Crash(BaseException):
    """Stands in for crash injection / KeyboardInterrupt."""


def _raise(exc: BaseException) -> None:
    raise exc


class TestEveryExitIsBalanced:
    @pytest.mark.parametrize("handler, watchdog, vanish, outcome", [
        (lambda f: None, None, False, OUTCOME_OK),
        (lambda f: _raise(RuntimeError("boom")), None, False,
         OUTCOME_HANDLER_ERROR),
        (lambda f: time.sleep(0.002), HandlerWatchdog(limit_ns=1_000), False,
         OUTCOME_WATCHDOG),
        (lambda f: None, None, True, OUTCOME_VANISHED),
        (lambda f: _raise(_Crash()), None, False, OUTCOME_ABORTED),
    ], ids=["ok", "handler-error", "watchdog", "vanished", "aborted"])
    def test_one_end_per_begin_with_the_outcome(
        self, handler, watchdog, vanish, outcome
    ):
        exe = Executive(node=0, watchdog=watchdog)
        log: list = []
        exe.attach(Recording(log))
        target = FunctionalListener(name="target", handlers={XFN: handler})
        tid = exe.install(target)
        sender = Listener("sender")
        exe.install(sender)
        sender.send(tid, b"x", xfunction=XFN)
        if vanish:
            # Between queueing and dispatch: the frame is already in
            # the scheduler when its device goes away.
            drain_queues(exe)
            del exe._devices[tid]
        if outcome == OUTCOME_ABORTED:
            with pytest.raises(_Crash):
                exe.run_until_idle()
        else:
            exe.run_until_idle()
        mine = [(kind, rec) for _, kind, rec in log if rec.target == tid]
        assert [kind for kind, _ in mine] == ["begin", "end"]
        begin_rec, end_rec = mine[0][1], mine[1][1]
        assert begin_rec is end_rec
        assert end_rec.outcome == outcome
        assert end_rec.end_ns >= end_rec.start_ns
        assert (end_rec.node, end_rec.function, end_rec.xfunction) == (
            0, 0xFF, XFN
        )
        # Every other dispatch (the failure reply) is balanced too.
        assert sum(k == "begin" for _, k, _ in log) == sum(
            k == "end" for _, k, _ in log
        )
        assert exe.pool.in_flight == 0
        exe.pool.check_conservation()

    def test_an_aborted_dispatch_does_not_stay_the_running_one(self):
        # After a BaseException escape the executive is outside any
        # dispatch again, so its next dispatch gets the lent record.
        exe = Executive(node=0)
        log: list = []
        exe.attach(Recording(log))
        crash = exe.install(FunctionalListener(
            name="crash", handlers={XFN: lambda f: _raise(_Crash())}))
        sink = exe.install(
            FunctionalListener(name="sink", handlers={XFN: lambda f: None}))
        exe.post_inbound(exe.frame_alloc(0, target=crash, xfunction=XFN))
        with pytest.raises(_Crash):
            exe.run_until_idle()
        assert exe._dispatching is None
        lent = exe._record
        exe.post_inbound(exe.frame_alloc(0, target=sink, xfunction=XFN))
        exe.run_until_idle()
        assert lent.target == sink and lent.outcome == OUTCOME_OK
        assert exe.pool.in_flight == 0

    def test_aborted_dispatch_clears_tracer_and_slot_state(self):
        from repro.profile.sampler import SamplingProfiler

        exe = Executive(node=0)
        recorder = exe.attach(FlightRecorder(capacity=8))
        profiler = SamplingProfiler(hz=50.0)
        profiler.register(exe)
        profiler.watch_thread(0)
        in_dispatch = []

        def crash(frame):
            in_dispatch.append(recorder._active)
            profiler.sample_once()
            _raise(_Crash())

        tid = exe.install(FunctionalListener(
            name="target", handlers={XFN: crash}
        ))
        sender = Listener("sender")
        exe.install(sender)
        sender.send(tid, b"x", xfunction=XFN)
        with pytest.raises(_Crash):
            exe.run_until_idle()
        # The sampler saw the dispatch in flight, and sees none after
        # the abort unwound it.
        assert profiler.node_busy[0] == 1
        profiler.sample_once()
        assert profiler.node_busy[0] == 1
        assert profiler.node_samples[0] == 2
        # The dispatched frame's trace was active, and is cleared: sends
        # made after the abort root traces of their own.
        assert is_trace_context(in_dispatch[0])
        assert recorder._active is None


class Timer(DispatchObserver):
    """A stand-in instrument class of its own."""

    label = "dispatch timer"


class TestSeamSemantics:
    @pytest.mark.parametrize("make", [
        lambda: FlightRecorder(capacity=8),
        lambda: Timer(),
    ], ids=["recorder", "timer"])
    def test_second_observer_of_a_class_is_refused(self, make):
        exe = Executive(node=3)
        first = exe.attach(make())
        with pytest.raises(I2OError, match="node 3 already has a"):
            exe.attach(make())
        assert exe.observers == (first,)

    def test_attach_sets_and_detach_clears_the_plain_references(self):
        exe = Executive(node=0)
        recorder = exe.attach(FlightRecorder(capacity=8))
        assert exe.flightrec is recorder
        assert (recorder.node, recorder.clock) == (0, exe.clock)
        exe.detach(recorder)
        exe.detach(recorder)  # not attached: a no-op
        assert (exe.flightrec, exe.observers) == (None, ())

    def test_delivery_order_is_attach_order(self):
        exe = Executive(node=0)
        log: list = []
        exe.attach(Recording(log, "first"))
        exe.attach(Second(log, "second"))
        tid = exe.install(
            FunctionalListener(name="sink", handlers={XFN: lambda f: None})
        )
        exe.post_inbound(exe.frame_alloc(0, target=tid, xfunction=XFN))
        exe.run_until_idle()
        assert [(name, kind) for name, kind, _ in log] == [
            ("first", "begin"), ("second", "begin"),
            ("first", "end"), ("second", "end"),
        ]

    def test_a_nested_dispatch_leaves_the_outer_record_intact(self):
        # A handler that pumps its executive dispatches a frame inside
        # its own dispatch: the outer observer must still see its own
        # target, context and outcome at ``dispatch_end``.
        class Stack(DispatchObserver):
            def __init__(self) -> None:
                self.open: list[tuple[int, int]] = []
                self.ends: list[tuple[tuple[int, int], tuple[int, int, int]]] = []

            def dispatch_begin(self, rec) -> None:
                self.open.append((rec.target, rec.context))

            def dispatch_end(self, rec) -> None:
                self.ends.append((self.open.pop(),
                                  (rec.target, rec.context, rec.outcome)))

        exe = Executive(node=0)
        observer = exe.attach(Stack())
        sink = exe.install(
            FunctionalListener(name="sink", handlers={XFN: lambda f: None}))

        class Pumper(Listener):
            def on_plugin(self) -> None:
                self.bind(XFN, self._pump)

            def _pump(self, frame) -> None:
                self.send(sink, b"", xfunction=XFN, transaction_context=0x222)
                exe.run_until_idle()
                raise RuntimeError("after the nested dispatch")

        pumper = Pumper("pumper")
        exe.install(pumper)
        exe.post_inbound(exe.frame_alloc(
            0, target=pumper.tid, initiator=pumper.tid, xfunction=XFN,
            transaction_context=0x111))
        exe.run_until_idle()
        assert observer.ends == [
            ((sink, 0x222), (sink, 0x222, OUTCOME_OK)),
            ((pumper.tid, 0x111), (pumper.tid, 0x111, OUTCOME_HANDLER_ERROR)),
        ]
        assert exe.pool.in_flight == 0

    def test_no_observers_means_no_clock_reads(self):
        class CountingClock:
            reads = 0

            def now_ns(self) -> int:
                self.reads += 1
                return 0

        clock = CountingClock()
        exe = Executive(node=0, clock=clock)
        log: list = []
        exe.detach(exe.attach(Recording(log)))
        tid = exe.install(
            FunctionalListener(name="sink", handlers={XFN: lambda f: None})
        )
        exe.post_inbound(exe.frame_alloc(0, target=tid, xfunction=XFN))
        assert exe.step() and exe.dispatched == 1
        assert clock.reads == 0
        assert log == []

    def test_attach_and_detach_while_running_never_split_a_pair(self):
        class Pairing(DispatchObserver):
            def __init__(self) -> None:
                self.open = 0
                self.begins = 0
                self.unpaired = 0

            def dispatch_begin(self, rec) -> None:
                self.open += 1
                self.begins += 1

            def dispatch_end(self, rec) -> None:
                if self.open != 1:
                    self.unpaired += 1
                self.open -= 1

        exe = Executive(node=0)
        spinning = threading.Event()
        spinning.set()

        class Spinner(Listener):
            def on_plugin(self) -> None:
                self.bind(XFN, self._again)

            def _again(self, frame) -> None:
                if spinning.is_set():
                    self.send(self.tid, b"", xfunction=XFN)

        spinner = Spinner("spinner")
        exe.install(spinner)
        spinner.send(spinner.tid, b"", xfunction=XFN)
        observer = Pairing()
        exe.start()
        try:
            deadline = time.monotonic() + 5.0
            toggles = 0
            while toggles < 300 and time.monotonic() < deadline:
                exe.attach(observer)
                time.sleep(0.0002)
                exe.detach(observer)
                toggles += 1
        finally:
            spinning.clear()
            exe.stop()
        assert observer.begins > 0
        assert observer.unpaired == 0
        assert observer.open == 0
