"""Edge credits: park, shed, resume, conservation, instrumentation."""

from __future__ import annotations

import pytest

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.core.telemetry import node_snapshot
from repro.dataflow.registry import _unregister, message_type
from repro.dataflow.routing import CreditLedger, DataflowOutbox
from repro.flightrec.records import (
    EV_DATAFLOW_PARK,
    EV_DATAFLOW_PARK_OVERFLOW,
    EV_DATAFLOW_RESUME,
    EV_DATAFLOW_SHED,
    RECORD_SIZE,
    RECORD_STRUCT,
)

XF_PARKY = 0x0E30
XF_SHEDDY = 0x0E31


@pytest.fixture
def types():
    parky = message_type("test.parky", XF_PARKY)
    sheddy = message_type("test.sheddy", XF_SHEDDY, on_saturation="shed")
    yield parky, sheddy
    _unregister("test.parky")
    _unregister("test.sheddy")


class Sink(Listener):
    device_class = "test_sink"

    def __init__(self, name: str = "sink") -> None:
        super().__init__(name)
        self.got: list[bytes] = []

    def on_plugin(self) -> None:
        self.bind(XF_PARKY, self._take)
        self.bind(XF_SHEDDY, self._take)

    def _take(self, frame) -> None:
        if not frame.is_reply:
            self.got.append(bytes(frame.payload))


class Source(Listener):
    device_class = "test_source"


def _rig(exe: Executive, park_limit: int = 256):
    """Wire ledger + outbox onto a bare executive (bootstrap's job)."""
    ledger = CreditLedger()
    outbox = DataflowOutbox(exe, ledger, limit=park_limit)
    exe.attach(ledger)
    exe.dataflow_outbox = outbox
    exe._pollable.append(outbox)
    return ledger, outbox


def _wire(exe, ledger, source, sink, mtype, capacity):
    edge = ledger.register_edge(
        mtype, "sink", source.name, exe.node, sink.name, exe.node,
        sink.tid, capacity,
    )
    source.connect_route(mtype, {"sink": sink.tid}, edges={"sink": edge})
    return edge


class TestParkResume:
    def test_saturated_edge_parks_then_resumes_in_order(self, types):
        parky, _ = types
        exe = Executive(node=0)
        ledger, outbox = _rig(exe)
        source, sink = Source("src"), Sink()
        exe.install(source)
        exe.install(sink)
        edge = _wire(exe, ledger, source, sink, parky, capacity=2)

        for i in range(5):
            source.emit(parky, bytes([i]))
        assert outbox.depth == 3
        assert outbox.parked_total == 3
        assert edge.credits == 0

        exe.run_until_idle()
        assert sink.got == [bytes([i]) for i in range(5)]
        assert outbox.depth == 0
        assert ledger.resumed(0) == 3
        assert ledger.shed(0) == 0
        # Conservation: every dispatched frame returned its credit.
        assert edge.credits == edge.capacity

    def test_emit_returns_only_frames_posted_now(self, types):
        parky, _ = types
        exe = Executive(node=0)
        ledger, _ = _rig(exe)
        source, sink = Source("src"), Sink()
        exe.install(source)
        exe.install(sink)
        _wire(exe, ledger, source, sink, parky, capacity=1)
        assert source.emit(parky, b"a") == (1, 0, 0)
        assert source.emit(parky, b"b") == (0, 1, 0)  # parked, not posted


class TestShed:
    def test_shed_policy_drops_and_counts(self, types):
        _, sheddy = types
        exe = Executive(node=0)
        ledger, outbox = _rig(exe)
        source, sink = Source("src"), Sink()
        exe.install(source)
        exe.install(sink)
        _wire(exe, ledger, source, sink, sheddy, capacity=2)

        for i in range(5):
            source.emit(sheddy, bytes([i]))
        assert outbox.depth == 0  # shed, never parked
        exe.run_until_idle()
        assert sink.got == [bytes([0]), bytes([1])]
        assert ledger.shed(0) == 3

    def test_full_outbox_counts_park_overflow(self, types):
        """A park the full outbox refuses is dropped, reported to the
        emitter and counted as park overflow: never as a shed."""
        parky, _ = types
        exe = Executive(node=0)
        ledger, outbox = _rig(exe, park_limit=2)
        source, sink = Source("src"), Sink()
        exe.install(source)
        exe.install(sink)
        _wire(exe, ledger, source, sink, parky, capacity=1)

        reports = [source.emit(parky, bytes([i])) for i in range(6)]
        assert reports == [(1, 0, 0)] + [(0, 1, 0)] * 2 + [(0, 0, 1)] * 3
        assert outbox.depth == 2  # bounded
        assert ledger.park_overflow(0) == 3  # 1 posted + 2 parked + 3 over
        assert ledger.shed(0) == 0
        exe.run_until_idle()
        assert sink.got == [bytes([0]), bytes([1]), bytes([2])]

    def test_dropped_route_sheds_parked_payloads(self, types):
        parky, _ = types
        exe = Executive(node=0)
        ledger, outbox = _rig(exe)
        source, sink = Source("src"), Sink()
        exe.install(source)
        exe.install(sink)
        _wire(exe, ledger, source, sink, parky, capacity=1)

        source.emit(parky, b"a")
        source.emit(parky, b"b")
        assert outbox.depth == 1
        source.drop_route_target("sink", types=(parky,))
        exe.run_until_idle()
        assert sink.got == [b"a"]
        assert ledger.shed(0) == 1
        assert outbox.depth == 0


class TestInstrumentation:
    def _kinds(self, recorder):
        body = recorder.ring_bytes()
        return [
            RECORD_STRUCT.unpack_from(body, i * RECORD_SIZE)[-1]
            for i in range(recorder.stored_records)
        ]

    def test_flight_recorder_sees_park_resume_and_shed(self, types):
        from repro.flightrec.recorder import FlightRecorder

        parky, sheddy = types
        exe = Executive(node=0)
        exe.attach(FlightRecorder(node=0, capacity=64, clock=exe.clock))
        ledger, _ = _rig(exe)
        source, sink = Source("src"), Sink()
        exe.install(source)
        exe.install(sink)
        _wire(exe, ledger, source, sink, parky, capacity=1)
        _wire(exe, ledger, source, sink, sheddy, capacity=1)

        source.emit(parky, b"a")
        source.emit(parky, b"b")  # parked
        source.emit(sheddy, b"c")
        source.emit(sheddy, b"d")  # shed
        exe.dataflow_outbox.limit = 1
        source.emit(parky, b"e")  # the outbox is full: park overflow
        exe.run_until_idle()

        kinds = self._kinds(exe.flightrec)
        assert kinds.count(EV_DATAFLOW_PARK) == 1
        assert kinds.count(EV_DATAFLOW_SHED) == 1
        assert kinds.count(EV_DATAFLOW_RESUME) == 1
        assert kinds.count(EV_DATAFLOW_PARK_OVERFLOW) == 1

    def test_bootstrap_exports_dataflow_gauges(self):
        from repro.config.bootstrap import bootstrap
        from repro.dataflow.examples import event_builder_spec

        cluster = bootstrap(event_builder_spec(1, 1))
        snapshot = node_snapshot(cluster.executives[0])
        for name in ("dataflow_credits_available", "dataflow_parked",
                     "dataflow_parked_total", "dataflow_shed_total",
                     "dataflow_park_overflow", "dataflow_resumed_total"):
            assert name in snapshot
        assert snapshot["dataflow_credits_available"] > 0
