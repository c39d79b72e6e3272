"""``wire_dataflow`` outside bootstrap: hand-assembled rigs, re-runs."""

from __future__ import annotations

import pytest

from repro.config.bootstrap import bootstrap
from repro.daq.builder import BuilderUnit
from repro.daq.manager import EventManager
from repro.daq.readout import ReadoutUnit
from repro.daq.trigger import TriggerSource
from repro.dataflow.examples import event_builder_spec
from repro.dataflow.wiring import wire_dataflow
from repro.i2o.errors import I2OError

from tests.conftest import assert_no_leaks, make_loopback_cluster, pump


def _install_daq(cluster, *, with_trigger=True):
    evm = EventManager()
    cluster[0].install(evm)
    trigger = TriggerSource()
    if with_trigger:
        cluster[0].install(trigger)
    cluster[1].install(ReadoutUnit(ru_id=0))
    cluster[2].install(BuilderUnit(bu_id=0))
    return evm, trigger


def _capacities(device, mtype):
    return {k: e.capacity for k, e in device.routes_for(mtype).edges.items()}


def test_hand_assembled_rig_gets_the_bootstrap_routes():
    """Same devices, same placement: the rig's derived tables equal
    the ones a spec's ``dataflow`` section produces."""
    booted = bootstrap(event_builder_spec(1, 1))
    cluster = make_loopback_cluster(3)
    evm, trigger = _install_daq(cluster)
    wire_dataflow(cluster)
    for name, device in (("evm", evm), ("trigger", trigger)):
        reference = booted.device(name)
        for mtype in device.emits:
            assert sorted(device.dataflow_targets(mtype)) == sorted(
                reference.dataflow_targets(mtype)
            )
            assert _capacities(device, mtype) == _capacities(reference, mtype)
    trigger.fire_burst(5)
    pump(cluster)
    assert evm.completed == 5
    assert_no_leaks(cluster)


def test_rewiring_is_idempotent():
    cluster = bootstrap(event_builder_spec(2, 1))
    ledger = cluster.dataflow_ledger
    credits = {n: ledger.credits_available(n) for n in cluster.executives}
    pollables = {n: len(e._pollable) for n, e in cluster.executives.items()}
    _, again = wire_dataflow(cluster.executives)
    assert again is ledger  # every node stays on the one ledger
    assert credits == {
        n: ledger.credits_available(n) for n in cluster.executives
    }  # replaced routes handed their edges back
    assert pollables == {
        n: len(e._pollable) for n, e in cluster.executives.items()
    }  # no second outbox
    cluster.device("trigger").fire_burst(6)
    cluster.pump()
    assert cluster.device("evm").completed == 6


def test_partial_topology_is_refused():
    cluster = make_loopback_cluster(3)
    evm, _ = _install_daq(cluster, with_trigger=False)
    with pytest.raises(I2OError, match="missing-provider"):
        wire_dataflow(cluster)
    # Refused before anything was wired: no ledger, no routes.
    assert all(exe.dataflow is None for exe in cluster.values())
    assert not evm.bu_tids and not evm.ru_tids
