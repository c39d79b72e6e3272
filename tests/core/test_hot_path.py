"""Regression guards on the per-message path: it raises no exception,
and an in-process hop stays as shallow as it was made.

A raised-and-caught exception costs about ten times the test that
avoids it, and the fast path once paid roughly ten per round trip:
``IndexError`` from empty-deque pops in ``MessagingInstance.take_*``,
``queue.Empty`` ending every ``QueueTransport.poll`` drain.  Each
workload below runs under ``sys.settrace`` and counts ``exception``
events in frames whose code lives in the ``repro`` package; the count
must be zero.

The mutant this must catch: draining the inbound deque in
``Executive.step`` with ``try: popleft() except IndexError: break``
fails every exception case here.

The call-count cases pin the ``repro`` functions one stepped one-way
message calls, in three parts: the sender's ``send``, the in-process
hop (the PTA forwarding the frame and the receiver ingesting it) and
the receiver's dispatch.  The hop made 24 calls before the hand-off
and the in-process ingest were each made one call, and 12 while it
called ``MessagingInstance.wake`` twice; the three parts made 12, 12
and 8 while the path still called ``_require_live``, ``wake`` and
``Allocator.note_free``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import pytest

import repro
from repro.analysis.sanitize import sanitizing_enabled
from repro.config.bootstrap import bootstrap
from repro.core.device import Listener
from repro.core.executive import Executive
from repro.dataflow.examples import event_builder_spec
from repro.transports.agent import PeerTransportAgent
from repro.transports.base import PeerTransport
from tests.transports.harness import (
    Caller,
    Echo,
    Keeper,
    make_loopback,
    make_queued,
)

PACKAGE = os.path.dirname(repro.__file__) + os.sep


@contextmanager
def exceptions_in_package() -> Iterator[list[str]]:
    """Collect ``file:line ExceptionType`` for every exception event in
    a ``repro`` frame while the block runs."""
    seen: list[str] = []

    def local(frame, event, arg):
        if event == "exception":
            seen.append(
                f"{frame.f_code.co_filename}:{frame.f_lineno} {arg[0].__name__}"
            )
        return local

    def call(frame, event, arg) -> Callable | None:
        if not frame.f_code.co_filename.startswith(PACKAGE):
            return None
        frame.f_trace_lines = False
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        yield seen
    finally:
        sys.settrace(previous)


def _round_trips(harness, count: int, burst: int) -> None:
    echo_tid = harness.exes[1].install(Echo())
    caller = Caller()
    harness.exes[0].install(caller)
    proxy = harness.exes[0].routes.create_proxy(1, echo_tid)
    for i in range(count // burst):
        for _ in range(burst):
            caller.send(proxy, b"x" * 64, xfunction=0x1)
        expected = (i + 1) * burst
        assert harness.run_until(lambda: len(caller.replies) == expected)


def test_queue_transport_pingpong_raises_nothing():
    harness = make_queued()
    with exceptions_in_package() as seen:
        _round_trips(harness, 200, burst=1)
    harness.finish()
    assert seen == []


def test_loopback_flood_raises_nothing():
    harness = make_loopback()
    with exceptions_in_package() as seen:
        _round_trips(harness, 256, burst=256)
    harness.finish()
    assert seen == []


def test_stepped_event_builder_raises_nothing():
    cluster = bootstrap(event_builder_spec(2, 2))
    trigger, evm = cluster.device("trigger"), cluster.device("evm")
    with exceptions_in_package() as seen:
        fired = trigger.fire_burst(32)
        cluster.pump()
    assert len(fired) == 32 and evm.completed == 32
    assert seen == []


#: ``repro`` calls per one-way in-process hop: ``forward``, the
#: target rewrite, ``transmit``, ``make_handoff`` and the receiver's
#: ``notify_staged``, then ``ingest_staged``, ``adopt``,
#: ``create_proxy``, the initiator rewrite and ``post_inbound``.
HOP_CALLS = 10
_HOP_ROOTS = frozenset({PeerTransportAgent.forward.__code__,
                        PeerTransport.ingest_staged.__code__})
#: ``repro`` calls under the sender's ``send``: ``send``, ``_post``,
#: ``frame_loan`` with ``check_header``, the pool's ``alloc`` and
#: ``_acquire`` and ``put_header``, the payload view, ``frame_send``
#: and ``post_outbound``.
SEND_CALLS = 10
#: ``repro`` calls under the receiver's ``_dispatch_one``: itself, the
#: scheduler's ``pop``, ``lookup``, ``prepare``, the handler's payload
#: view, then the block's ``release`` and the pool's ``_recycle``.
DISPATCH_CALLS = 7


def _calls_under(harness, roots: frozenset) -> list[str]:
    """The ``repro`` functions called under ``roots`` (roots included)
    for one stepped one-way message, sent after a first one warmed the
    route tables."""
    keeper = Keeper()
    proxy = harness.exes[0].routes.create_proxy(
        1, harness.exes[1].install(keeper))
    sender = Keeper("sender")
    harness.exes[0].install(sender)
    calls: list[str] = []
    inside: list[object] = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if inside or code in roots:
                if code.co_filename.startswith(PACKAGE):
                    calls.append(code.co_name)
                if not inside:
                    inside.append(frame)
        elif event == "return" and inside and frame is inside[0]:
            inside.clear()

    for n in (1, 2):
        if n == 2:
            sys.setprofile(profile)
        try:
            sender.send(proxy, b"x" * 64, xfunction=0x1)
            assert harness.run_until(lambda: len(keeper.payloads) == n)
        finally:
            sys.setprofile(None)
    harness.finish()
    return calls


_unsanitized = pytest.mark.skipif(
    sanitizing_enabled(), reason="the sanitizer adds calls to every hop on purpose")
_transports = pytest.mark.parametrize(
    "make", [make_loopback, make_queued], ids=["loopback", "queued"])


@_unsanitized
@_transports
def test_an_in_process_hop_makes_at_most_ten_calls(make):
    calls = _calls_under(make(), _HOP_ROOTS)
    assert calls.count("forward") == calls.count("ingest_staged") == 1
    assert len(calls) == HOP_CALLS, calls


@_unsanitized
@_transports
def test_a_send_makes_its_pinned_calls(make):
    calls = _calls_under(make(), frozenset({Listener.send.__code__}))
    assert calls.count("send") == 1
    assert len(calls) == SEND_CALLS, calls


@_unsanitized
@_transports
def test_a_dispatch_makes_its_pinned_calls(make):
    calls = _calls_under(make(), frozenset({Executive._dispatch_one.__code__}))
    assert calls.count("_dispatch_one") == 1
    assert len(calls) == DISPATCH_CALLS, calls
