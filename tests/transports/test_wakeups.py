"""Every producer of work wakes the loop that consumes it — no tick.

A ``start()``ed executive parks untimed unless a timer is armed
(DESIGN §5 item 1).  Besides a post, two producers publish work the
loop only finds by asking: an in-process polling transport staging
data for the *receiving* executive (loopback, faulty, queued), and a
consumer returning the credit a parked dataflow emission waits for.
Both wake the consumer through ``MessagingInstance.wake``.

The staging stress test is the lost-wake-up check.  The mutant it must
hang: drop the staged-data check from the loop's announce → check →
park (``any(pt.has_pending ...)`` in ``Executive.start``).  A transmit
that lands between the receiver's ``poll`` and its announcement then
rings nobody and both loops sleep for ever — here a stalled-progress
assertion with every thread's stack dumped, not a hung suite.
"""

from __future__ import annotations

import faulthandler
import sys
import threading
import time
from typing import Callable

import pytest

from repro.config.bootstrap import bootstrap
from repro.core.device import Listener
from repro.dataflow.examples import event_builder_spec
from repro.dataflow.wiring import wire_dataflow

from tests.conftest import all_parked, assert_no_leaks, record_loop, wait_for
from tests.transports.harness import Echo, make_harness

#: the in-process polling transports of the conformance matrix
POLLING = ("faulty", "loopback", "queued")
XF_ECHO = 0x1
XF_KICK = 0x0E70


class Bouncer(Listener):
    """Echo client driven from its own loop thread: ``rounds``
    sequential round trips, then ``burst`` requests at once; ``done``
    is set when every reply is back."""

    def __init__(self, target: int, rounds: int, burst: int) -> None:
        super().__init__("bouncer")
        self.target, self.rounds, self.burst = target, rounds, burst
        self.replies = 0
        self.done = threading.Event()

    def on_plugin(self) -> None:
        self.bind(XF_ECHO, self._on_reply)

    def _on_reply(self, frame) -> None:
        if not frame.is_reply:
            return
        self.replies += 1
        if self.replies < self.rounds:
            self.send(self.target, b"ping", xfunction=XF_ECHO)
        elif self.replies == self.rounds:
            for i in range(self.burst):
                self.send(self.target, i.to_bytes(2, "little"),
                          xfunction=XF_ECHO)
        elif self.replies == self.rounds + self.burst:
            self.done.set()


def _finished(progress: Callable[[], int], done: threading.Event,
              stall_s: float = 2.0) -> bool:
    """Wait for ``done`` while ``progress()`` keeps moving.  A whole
    ``stall_s`` without progress is a lost wake-up: dump every stack."""
    seen = -1
    while not done.is_set():
        if progress() == seen:
            faulthandler.dump_traceback(all_threads=True)
            return False
        seen = progress()
        done.wait(stall_s)
    return True


def _bounce(name: str, rounds: int, burst: int, switch_s: float) -> None:
    harness = make_harness(name)
    client, server = harness.exes[0], harness.exes[1]
    bouncer = Bouncer(client.routes.create_proxy(1, server.install(Echo())),
                      rounds, burst)
    client.install(bouncer)
    records = {node: record_loop(exe) for node, exe in harness.exes.items()}
    previous = sys.getswitchinterval()
    # Switch threads inside the poll → announce window too: at the
    # default 5 ms the mutant above survives thousands of round trips.
    sys.setswitchinterval(switch_s)
    for exe in harness.exes.values():
        exe.start()
    try:
        bouncer.send(bouncer.target, b"ping", xfunction=XF_ECHO)
        finished = _finished(lambda: bouncer.replies, bouncer.done)
    finally:
        for exe in harness.exes.values():
            exe.stop()
        sys.setswitchinterval(previous)
    assert finished, (
        f"{name}: stalled after {bouncer.replies} of {rounds + burst} "
        f"replies (a lost wake-up)"
    )
    for node, (_steps, parks) in records.items():
        assert parks, f"{name}: node {node} never parked"
        assert set(parks) == {None}, f"{name}: node {node} took a timed park"
    harness.finish()  # settled, pools conserved, sanitizer canaries clean


@pytest.mark.parametrize("name", POLLING)
def test_polling_staging_wakes_the_receiver(name):
    # ~0.35 s per transport on a 2-core VM; the mutant hung at least
    # one of the three in each of six runs of this size.
    _bounce(name, rounds=5_000, burst=256, switch_s=1e-6)


@pytest.mark.soak
@pytest.mark.parametrize("name", POLLING)
def test_soak_polling_staging_wakes_the_receiver(name):
    _bounce(name, rounds=100_000, burst=256, switch_s=1e-5)


class Kicker(Listener):
    """Fires a trigger burst from its executive's own loop thread."""

    def __init__(self, trigger: Listener, count: int) -> None:
        super().__init__("kicker")
        self.trigger, self.count = trigger, count

    def on_plugin(self) -> None:
        self.bind(XF_KICK, self._kick)

    def _kick(self, frame) -> None:
        if not frame.is_reply:
            self.trigger.fire_burst(self.count)


def test_parked_emissions_resume_on_the_returned_credit():
    """One credit on the EVM → builder edge, and a trigger window of
    ``events``.  With only the EVM's loop running, every allocation
    past the first parks and the saturated emitter sleeps instead of
    spinning.  Start the builder (but not
    the readout unit, so no event can finish and send ``EVENT_DONE``):
    each credit its dispatch returns is then the only thing that can
    wake the EVM, and every parked allocation must still go out.  Start
    the readout unit and the burst completes — with no tick anywhere."""
    events = 8
    cluster = bootstrap(event_builder_spec(1, 1, dataflow={"edge_credits": 1}))
    cluster.device("evm").queue_capacity = events
    wire_dataflow(cluster.executives, edge_credits=1)
    evm_exe, ru_exe, bu_exe = (
        cluster.executive(cluster.node_of(name))
        for name in ("evm", "ru0", "bu0"))
    evm = cluster.device("evm")
    kicker = Kicker(cluster.device("trigger"), events)
    evm_exe.install(kicker)
    records = {node: record_loop(exe)
               for node, exe in cluster.executives.items()}
    outbox = evm_exe.dataflow_outbox
    evm_exe.start()
    try:
        kicker.send(kicker.tid, b"", xfunction=XF_KICK)
        assert wait_for(lambda: outbox.depth == events - 1)
        assert all_parked([evm_exe])
        blocked = len(records[evm_exe.node][0])
        time.sleep(0.3)
        assert len(records[evm_exe.node][0]) == blocked, (
            "a saturated emitter kept stepping")

        bu_exe.start()
        ledger = cluster.dataflow_ledger
        assert wait_for(
            lambda: ledger.resumed(evm_exe.node) == outbox.parked_total
        ), f"{outbox.depth} allocations still parked"
        assert outbox.depth == 0 and outbox.parked_total >= events - 1
        assert evm.completed == 0  # the credits woke the EVM, not a DONE

        ru_exe.start()
        assert wait_for(lambda: evm.completed == events), (
            f"{evm.completed}/{events} built")
    finally:
        cluster.stop_all()
    for node, (_steps, parks) in records.items():
        assert set(parks) <= {None}, f"node {node} took a timed park"
    cluster.pump()
    assert_no_leaks(cluster.executives)


def test_an_idle_started_event_builder_takes_no_steps():
    """Nine started executives with loopback PTs and dataflow outboxes
    (about 8 100 steps/s when polling-mode PTs kept a 1 ms tick)."""
    cluster = bootstrap(event_builder_spec(4, 4))
    records = [record_loop(exe) for exe in cluster.executives.values()]
    cluster.start_all()
    try:
        assert all_parked(cluster.executives.values())
        before = sum(len(steps) for steps, _ in records)
        time.sleep(1.0)
        assert sum(len(steps) for steps, _ in records) - before <= 10
    finally:
        cluster.stop_all()
    assert all(set(parks) == {None} for _, parks in records)
