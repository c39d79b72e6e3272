"""Restart-replay conformance: journal recovery over every transport.

The durable stream must be transport-agnostic, like everything else in
the framework (§6 portability): a journaled endpoint that restarts
replays its unacknowledged tail over whatever wire the PTA routes to,
with exactly-once delivery preserved end to end — and the replayed
traffic stays inside the zero-copy budgets PR 3 established for each
transport.  The endpoint restart is a *device* restart here (uninstall,
reopen the journal, reinstall at the same TiD); whole-node death is
exercised on the loopback plane in ``tests/durable`` and
``tests/integration/test_kill_rejoin.py``.
"""

from __future__ import annotations

import pytest

from repro.core.reliable import ReliableEndpoint
from repro.durable.segments import SegmentStore

from tests.transports.harness import FACTORIES, make_harness

#: Far beyond any test's virtual or wall time: replay must not depend
#: on retransmission timers, and spurious retransmits would break the
#: copy accounting below.
NEVER_NS = 10**15


@pytest.fixture(params=sorted(FACTORIES))
def harness(request):
    h = make_harness(request.param)
    yield h
    h.finish()


def _wire(harness, journal):
    rx = ReliableEndpoint(name="rx", retransmit_ns=NEVER_NS)
    received = []
    rx.consumer = lambda src, data: received.append(bytes(data))
    harness.exes[1].install(rx)
    tx = ReliableEndpoint(name="tx", retransmit_ns=NEVER_NS, journal=journal)
    harness.exes[0].install(tx)
    return tx, rx, received


def _pause_threads(harness):
    """Threaded harnesses (TCP) must not race the endpoint swap."""
    for exe in harness.exes.values():
        if getattr(exe, "_thread", None) is not None:
            exe.stop()


def _resume_threads(harness):
    if harness.name == "tcp":
        for exe in harness.exes.values():
            exe.start()


def test_restart_replay_exactly_once_within_copy_budget(harness, tmp_path):
    path = tmp_path / "tx.journal"
    tx, rx, received = _wire(harness, SegmentStore(path))
    tx_tid = int(tx.tid)
    peer = harness.exes[0].routes.create_proxy(1, rx.tid)

    # Pause any executive threads so the swap below cannot race the
    # delivery of batch1: every harness then journals the whole batch
    # with nothing acknowledged yet, and the replay count is exact.
    _pause_threads(harness)
    batch1 = [f"pre-crash-{i}".encode() for i in range(6)]
    for payload in batch1:
        tx.send_reliable(peer, payload)

    # Restart the endpoint: clean uninstall (timers cancelled, journal
    # flushed), journal reopened, replacement installed at the same
    # TiD.  Recovery owes the receiver each batch1 message exactly
    # once — whatever overlap the pre-restart queues still deliver is
    # the receiver's dedup problem, not the consumer's.
    harness.exes[0].uninstall(tx.tid)
    tx.journal.close()
    store2 = SegmentStore(path)
    tx2 = ReliableEndpoint(
        name="tx", retransmit_ns=NEVER_NS, journal=store2
    )
    harness.exes[0].install(tx2, tid=tx_tid)
    assert tx2.replayed == len(batch1)
    assert tx2.recoveries == 1
    _resume_threads(harness)

    peer2 = harness.exes[0].routes.create_proxy(1, rx.tid)
    batch2 = [f"post-crash-{i}".encode() for i in range(6)]
    for payload in batch2:
        tx2.send_reliable(peer2, payload)

    everything = sorted(batch1 + batch2)
    assert harness.run_until(
        lambda: sorted(received) == everything
    ), f"{harness.name}: {len(received)}/{len(everything)} delivered"
    # The ack handler pops ``_pending`` before its journal append (a
    # file write that releases the GIL): on threaded executives wait
    # for the retire itself, not just for ``in_flight`` to reach 0.
    assert harness.run_until(
        lambda: tx2.in_flight == 0 and store2.depth == 0
    )
    assert sorted(received) == everything  # exactly once, no extras
    assert rx.delivered == len(everything)
    assert store2.depth == 0  # every replayed send was retired

    # The replayed path is the ordinary send path: per-transport copy
    # budgets hold exactly as in the conformance suite.
    harness.assert_copy_budget()

    # Teardown hygiene: disarm the far-future retransmit timers so the
    # harness's idle-drain finish() isn't held hostage by them.
    _pause_threads(harness)
    harness.exes[0].uninstall(tx2.tid)
    harness.exes[1].uninstall(rx.tid)
    store2.close()
    _resume_threads(harness)
