"""Loopback transport semantics."""

from __future__ import annotations

import pytest

from repro.core.executive import Executive
from repro.transports.agent import PeerTransportAgent
from repro.transports.base import TransportError
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport

from tests.conftest import pump
from tests.transports.harness import Caller, Echo

# Round-trip, burst, large-payload, counter and oversize semantics are
# covered for every transport by tests/transports/test_conformance.py;
# this module keeps only what is loopback-specific.


def test_duplicate_node_rejected():
    net = LoopbackNetwork()
    exe = Executive(node=0)
    pta = PeerTransportAgent.attach(exe)
    pta.register(LoopbackTransport(net), default=True)
    exe2 = Executive(node=0)  # same node id!
    pta2 = PeerTransportAgent.attach(exe2)
    with pytest.raises(TransportError, match="already"):
        pta2.register(LoopbackTransport(net), default=True)


def test_unknown_destination_becomes_failure_reply(two_nodes):
    caller = Caller()
    two_nodes[0].install(caller)
    proxy = two_nodes[0].routes.create_proxy(99, 0x20)  # node 99 doesn't exist
    caller.send(proxy, b"x", xfunction=0x2)
    pump(two_nodes)
    assert caller.failures == [True]


def test_has_pending_reflects_staged_data(two_nodes):
    echo_tid = two_nodes[1].install(Echo())
    caller = Caller()
    two_nodes[0].install(caller)
    caller.send(two_nodes[0].routes.create_proxy(1, echo_tid), b"x", xfunction=0x1)
    two_nodes[0].step()  # routes + transmits, staging at node 1
    pt = two_nodes[1].pta.transport("loopback")
    assert pt.has_pending
    assert not two_nodes[1].idle
    pump(two_nodes)
    assert not pt.has_pending


def test_wide_cluster_any_to_any(five_nodes):
    echoes = {n: five_nodes[n].install(Echo()) for n in range(1, 5)}
    caller = Caller()
    five_nodes[0].install(caller)
    for node, tid in echoes.items():
        caller.send(five_nodes[0].routes.create_proxy(node, tid),
                    str(node).encode(), xfunction=0x1)
    pump(five_nodes)
    assert sorted(caller.replies) == [b"1", b"2", b"3", b"4"]
