"""Distributed frame tracing: id tagging and the flight recorder's
stamping; the hops it makes possible are projections of its ring."""

from __future__ import annotations

from repro.core.device import FunctionalListener, Listener
from repro.core.executive import Executive
from repro.core.observer import DispatchRecord
from repro.core.tracing import (
    TRACE_TAG,
    is_trace_context,
    make_trace_id,
    trace_root_node,
)
from repro.flightrec.recorder import FlightRecorder
from repro.flightrec.records import EV_DISPATCH
from repro.flightrec.timeline import project_hops
from repro.i2o.frame import Frame
from repro.i2o.tid import EXECUTIVE_TID, PTA_TID

from tests.conftest import ManualClock, drain_queues, make_loopback_cluster, pump

TARGET_TID = 2
INITIATOR_TID = 1


class _Echo(Listener):
    def on_plugin(self) -> None:
        self.bind(0x1, self._on_ping)

    def _on_ping(self, frame: Frame) -> None:
        if not frame.is_reply:
            self.reply(frame, bytes(frame.payload))


def _trace(exe: Executive, capacity: int = 256) -> None:
    exe.attach(FlightRecorder(capacity=capacity))


def _hops(exe: Executive):
    return project_hops(exe.node, exe.flightrec.records)


def _traced_pair(capacity: int = 256):
    cluster = make_loopback_cluster(2)
    for node, exe in cluster.items():
        _trace(exe, capacity)
    echo = _Echo(name="echo")
    echo_tid = cluster[1].install(echo)
    caller = FunctionalListener(name="caller")
    cluster[0].install(caller)
    proxy = cluster[0].routes.create_proxy(1, echo_tid)
    return cluster, caller, proxy


class TestTraceIds:
    def test_tag_scheme(self):
        tid = make_trace_id(7, 42)
        assert is_trace_context(tid)
        assert trace_root_node(tid) == 7
        assert tid >> 52 == TRACE_TAG

    def test_ordinary_contexts_are_not_traces(self):
        for ctx in (0, 1, 0x5EE9, 2**40, 2**52 - 1):
            assert not is_trace_context(ctx)

    def test_ids_are_unique_per_root(self):
        recorder = FlightRecorder(node=1)
        frames = [
            Frame.build(target=TARGET_TID, initiator=INITIATOR_TID)
            for _ in range(3)
        ]
        for f in frames:
            recorder.stamp(f)
        contexts = {f.transaction_context for f in frames}
        assert len(contexts) == 3
        assert all(is_trace_context(c) for c in contexts)
        assert {trace_root_node(c) for c in contexts} == {1}

    def test_stamp_never_overwrites(self):
        recorder = FlightRecorder(node=1)
        frame = Frame.build(target=TARGET_TID, initiator=INITIATOR_TID,
                            transaction_context=0x77)
        recorder.stamp(frame)
        assert frame.transaction_context == 0x77

    def test_sends_inside_a_dispatch_join_its_trace(self):
        recorder = FlightRecorder(node=1)

        def sent() -> int:
            frame = Frame.build(target=TARGET_TID, initiator=INITIATOR_TID)
            recorder.stamp(frame)
            return frame.transaction_context

        traced = make_trace_id(0, 9)
        rec = DispatchRecord(1, Frame.build(
            target=TARGET_TID, initiator=INITIATOR_TID,
            transaction_context=traced,
        ), 0)
        recorder.dispatch_begin(rec)
        assert sent() == sent() == traced
        recorder.dispatch_end(rec)
        assert sent() != traced  # between dispatches: a fresh root
        # An untraced dispatch (a timer's) roots one trace for all of
        # its sends.
        rec = DispatchRecord(1, Frame.build(
            target=TARGET_TID, initiator=INITIATOR_TID,
            transaction_context=0x123,
        ), 0)
        recorder.dispatch_begin(rec)
        first = sent()
        assert is_trace_context(first) and sent() == first
        recorder.dispatch_end(rec)


class TestOffMode:
    def test_no_tracer_means_zero_contexts_and_no_spans(self, two_nodes):
        # Stamping is the recorder's: a node without one sends its
        # frames with the context the sender gave them.
        seen = []
        sink = FunctionalListener(name="sink", handlers={
            0x1: lambda f: seen.append(f.transaction_context),
        })
        sink_tid = two_nodes[1].install(sink)
        caller = FunctionalListener(name="caller")
        two_nodes[0].install(caller)
        proxy = two_nodes[0].routes.create_proxy(1, sink_tid)
        caller.send(proxy, b"x", xfunction=0x1)
        pump(two_nodes)
        assert seen == [0]
        assert all(exe.flightrec is None for exe in two_nodes.values())


class TestSpans:
    def test_request_and_reply_share_one_trace(self):
        cluster, caller, proxy = _traced_pair()
        caller.send(proxy, b"ping", xfunction=0x1)
        pump(cluster)
        spans0, spans1 = _hops(cluster[0]), _hops(cluster[1])
        assert spans0 and spans1
        ids = {s.trace_id for s in spans0} | {s.trace_id for s in spans1}
        assert len(ids) == 1
        trace_id = ids.pop()
        assert is_trace_context(trace_id)
        assert trace_root_node(trace_id) == 0

    def test_span_fields(self):
        cluster, caller, proxy = _traced_pair()
        caller.send(proxy, b"ping", xfunction=0x1)
        pump(cluster)
        (span,) = _hops(cluster[1])
        assert span.node == 1
        assert span.xfunction == 0x1
        assert span.queue_wait_ns >= 0
        assert span.dispatch_ns >= 0

    def test_ring_is_bounded(self):
        # The recorder's capacity is the only bound on hops.
        cluster, caller, proxy = _traced_pair(capacity=8)
        for _ in range(10):
            caller.send(proxy, b"p", xfunction=0x1)
        pump(cluster)
        recorder = cluster[1].flightrec
        assert recorder.stored_records == 8
        assert recorder.dropped_records > 0
        assert 0 < len(_hops(cluster[1])) <= 4  # two records per hop

    def test_queue_wait_measured_against_the_executive_clock(self):
        clock = ManualClock()
        exe = Executive(node=0, clock=clock)
        _trace(exe)
        sink = FunctionalListener(name="sink", handlers={0x1: lambda f: None})
        tid = exe.install(sink)
        sink.send(tid, b"x", xfunction=0x1)
        drain_queues(exe)  # enqueue at t=0
        clock.t = 5_000
        exe.step()
        (span,) = _hops(exe)
        assert span.queue_wait_ns == 5_000
        assert span.start_ns == 5_000

    def test_forget_on_release_leaves_no_stale_entries(self):
        # Frames released without dispatch leave nothing behind: the
        # enqueue mark dies with the frame object, and no dispatch record
        # (so no hop) exists for them.
        exe = Executive(node=0)
        _trace(exe)
        sink = FunctionalListener(name="sink", handlers={0x1: lambda f: None})
        tid = exe.install(sink)
        for _ in range(3):
            sink.send(tid, b"x", xfunction=0x1)
        drain_queues(exe)
        assert len(exe.scheduler) == 3
        exe.uninstall(tid)  # drops the queued frames without dispatch
        exe.run_until_idle()
        assert exe.pool.in_flight == 0
        assert not [
            r for r in exe.flightrec.records if r.kind == EV_DISPATCH
        ]
        assert _hops(exe) == []

    def test_recycled_frame_does_not_inherit_stale_queue_wait(self):
        # Regression: enqueue timestamps used to be keyed by id(frame);
        # a recycled frame at the same address would then inherit the
        # dead frame's (older) timestamp and report a wildly inflated
        # queue wait.  The mark rides the frame, and the dispatch
        # record consumes it.
        clock = ManualClock()
        exe = Executive(node=0, clock=clock)
        _trace(exe)
        frame = Frame.build(
            target=PTA_TID, initiator=EXECUTIVE_TID, xfunction=0x1
        )
        exe._enqueue(frame)
        assert exe.scheduler.pop() is frame  # released without dispatch
        clock.t = 1_000_000
        # The same object standing in for a recycled id(), enqueued
        # much later, must measure from *its* enqueue.
        exe._enqueue(frame)
        clock.t = 1_000_500
        rec = DispatchRecord(0, frame, clock.t)
        assert rec.start_ns - rec.enqueued_ns == 500  # not 1_000_500
        assert frame.trace_mark is None  # consumed: nothing left to alias
        exe.scheduler.pop()

    def test_untraced_node_pays_no_enqueue_clock_read(self):
        exe = Executive(node=0)  # no ring: no stamps, no marks
        frame = Frame.build(
            target=PTA_TID, initiator=EXECUTIVE_TID, xfunction=0x1
        )
        exe._enqueue(frame)
        assert frame.trace_mark is None
        exe.scheduler.pop()

    def test_timer_contexts_survive_untraced(self):
        exe = Executive(node=0)
        _trace(exe, capacity=16)
        fired = []

        class _Timed(Listener):
            def on_timer(self, context: int, frame: Frame) -> None:
                fired.append(context)

        dev = _Timed(name="timed")
        exe.install(dev)
        dev.start_timer(0, context=0x123)
        exe.run_until_idle()
        assert fired == [0x123]
