"""The DAQ monitor: observation through standard utility messages."""

from __future__ import annotations

from repro.daq.manager import EventManager
from repro.daq.monitor import DaqMonitor

from tests.conftest import pump
from tests.daq.test_eventbuilder import wire_daq


def test_monitor_collects_counters_without_private_messages(five_nodes):
    evm, trigger, rus, bus = wire_daq(five_nodes)
    # Monitor lives on node 4 (shares with a BU; fine).
    monitor = DaqMonitor()
    five_nodes[4].install(monitor)
    monitor.watch(five_nodes[4].routes.create_proxy(0, evm.tid))
    for i, ru in rus.items():
        monitor.watch(five_nodes[4].routes.create_proxy(1 + i, ru.tid))
    trigger.fire_burst(12)
    pump(five_nodes)
    monitor.sweep()
    pump(five_nodes)
    evm_snapshot = monitor.snapshots[monitor.watched[0]]
    assert evm_snapshot["triggers"] == "12"
    assert evm_snapshot["completed"] == "12"
    ru_snapshot = monitor.snapshots[monitor.watched[1]]
    assert ru_snapshot["served"] == "12"
    assert ru_snapshot["buffered"] == "0"


def test_sweep_counts_watched(five_nodes):
    monitor = DaqMonitor()
    five_nodes[0].install(monitor)
    assert monitor.sweep() == 0
    evm = EventManager()
    tid = five_nodes[1].install(evm)
    monitor.watch(five_nodes[0].routes.create_proxy(1, tid))
    monitor.watch(five_nodes[0].routes.create_proxy(1, tid))  # dedup
    assert monitor.sweep() == 1
    pump(five_nodes)


def test_repeated_sweeps_refresh(five_nodes):
    evm, trigger, rus, bus = wire_daq(five_nodes)
    monitor = DaqMonitor()
    five_nodes[4].install(monitor)
    proxy = five_nodes[4].routes.create_proxy(0, evm.tid)
    monitor.watch(proxy)
    trigger.fire_burst(3)
    pump(five_nodes)
    monitor.sweep()
    pump(five_nodes)
    assert monitor.snapshot(proxy)["completed"] == "3"
    trigger.fire_burst(2)
    pump(five_nodes)
    monitor.sweep()
    pump(five_nodes)
    assert monitor.snapshot(proxy)["completed"] == "5"
    assert monitor.sweeps == 2
