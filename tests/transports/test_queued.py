"""Queue-pair transport: polling and task modes."""

from __future__ import annotations

import time

import pytest

from repro.core.executive import Executive
from repro.transports.agent import PeerTransportAgent
from repro.transports.base import TransportError
from repro.transports.queued import QueuePair, QueueTransport

from tests.transports.harness import Caller, Echo

# Polling-mode round-trip and in-order burst semantics are covered by
# tests/transports/test_conformance.py; this module keeps queue-pair
# validation and the threaded task mode.


def build_pair(mode: str):
    pair = QueuePair(0, 1)
    exes = {}
    for node in range(2):
        exe = Executive(node=node)
        PeerTransportAgent.attach(exe).register(
            QueueTransport(pair, name="q", mode=mode), default=True
        )
        exes[node] = exe
    return exes


class TestQueuePair:
    def test_same_endpoints_rejected(self):
        with pytest.raises(TransportError):
            QueuePair(1, 1)

    def test_unknown_node_rejected(self):
        pair = QueuePair(0, 1)
        with pytest.raises(TransportError):
            pair.receive_queue(5)

    def test_wrong_executive_node_rejected(self):
        pair = QueuePair(0, 1)
        exe = Executive(node=9)
        pta = PeerTransportAgent.attach(exe)
        with pytest.raises(TransportError, match="endpoint"):
            pta.register(QueueTransport(pair), default=True)


class TestTaskMode:
    def test_round_trip_with_threaded_executives(self):
        exes = build_pair("task")
        echo_tid = exes[1].install(Echo())
        caller = Caller()
        exes[0].install(caller)
        for exe in exes.values():
            exe.start()
        try:
            caller.send(exes[0].routes.create_proxy(1, echo_tid), b"task",
                        xfunction=0x1)
            deadline = time.monotonic() + 5
            while not caller.replies and time.monotonic() < deadline:
                time.sleep(0.001)
            assert caller.replies == [b"task"]
        finally:
            for exe in exes.values():
                exe.stop()
            for exe in exes.values():
                exe.pta.transport("q").shutdown()

    def test_task_mode_has_no_pending_concept(self):
        exes = build_pair("task")
        pt = exes[0].pta.transport("q")
        assert pt.has_pending is False
        pt.shutdown()
        exes[1].pta.transport("q").shutdown()
