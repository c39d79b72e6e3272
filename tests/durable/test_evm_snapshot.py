"""EventManager snapshot/restore and snapshot-store rejoin."""

from __future__ import annotations

import pytest

from repro.core.executive import Executive
from repro.daq.manager import EventManager
from repro.daq.protocol import MT_ALLOCATE
from repro.daq.trigger import TriggerSource
from repro.dataflow.wiring import wire_dataflow
from repro.durable.segments import SnapshotStore
from repro.i2o.errors import I2OError
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackTransport

from tests.conftest import assert_no_leaks, make_loopback_cluster, pump
from tests.daq.test_eventbuilder import wire_daq


class TestSnapshotDocument:
    def test_round_trip_counters_and_dedup(self, five_nodes):
        evm, trigger, rus, bus = wire_daq(five_nodes)
        trigger.fire_burst(8)
        pump(five_nodes)
        snap = evm.snapshot()
        fresh = EventManager()
        fresh.connect_route(MT_ALLOCATE, dict(evm.bu_tids))
        fresh.on_dataflow_connected()
        five_nodes[0].install(fresh)
        fresh.restore(snap)
        assert fresh.completed == 8
        assert sorted(fresh.completed_ids) == list(range(1, 9))
        assert fresh.in_flight == 0
        # The restored history dedups a replayed trigger.
        fresh.intake_trigger(3)
        assert fresh.duplicate_triggers == 1
        assert fresh.triggers == evm.triggers

    def test_version_mismatch_refused(self, five_nodes):
        evm, trigger, rus, bus = wire_daq(five_nodes)
        snap = evm.snapshot()
        snap["version"] = 99
        with pytest.raises(I2OError, match="version"):
            evm.restore(snap)

    def test_version_1_document_refused(self, five_nodes):
        """Version 1 carried the EVM's own throttle queue; the window is
        the trigger edge's now, so such a document is refused by name."""
        evm, trigger, rus, bus = wire_daq(five_nodes)
        snap = {**evm.snapshot(), "version": 1, "throttled": []}
        with pytest.raises(I2OError, match="snapshot version 1"):
            evm.restore(snap)

    def test_restore_with_assigned_needs_connect(self):
        exe = Executive(node=0)
        evm = EventManager()
        exe.install(evm)
        snap = {
            "version": 2, "assigned": {"4": 0},
            "attempts": {"4": 1}, "rr": [0], "rr_index": 0, "triggers": 1,
            "completed": 0, "completed_ids": [], "lost": [],
            "reassignments": 0, "duplicate_triggers": 0,
        }
        with pytest.raises(I2OError, match="connect"):
            evm.restore(snap)

    def test_ring_change_resets_cursor(self, five_nodes):
        evm, trigger, rus, bus = wire_daq(five_nodes)
        trigger.fire_burst(3)  # leaves rr_index mid-ring
        pump(five_nodes)
        snap = evm.snapshot()
        snap["rr"] = [7, 8, 9]  # a different builder ring shape
        evm.restore(snap)
        assert evm._rr_index == 0


class TestKillAndRejoinLoopback:
    """A mini node-death drill on the clean wire: the EVM node is
    hard-stopped with events still being built, a replacement boots
    from the snapshot store and finishes the run."""

    def _freeze_mid_flight(self, cluster, store):
        evm, trigger, rus, bus = wire_daq(cluster)
        evm.snapshot_store = store
        trigger.fire_burst(6)
        # Step ONLY the EVM node: triggers are admitted and launch
        # commands go out, but no RU/BU ever answers — six events are
        # frozen in flight when the node dies.
        for _ in range(200):
            if not cluster[0].step():
                break
        assert evm.in_flight == 6
        return evm, trigger, rus, bus

    def test_replacement_evm_finishes_the_run(self, tmp_path):
        cluster = make_loopback_cluster(5)
        store = SnapshotStore(tmp_path / "evm.snapshot")
        evm, trigger, rus, bus = self._freeze_mid_flight(cluster, store)
        evm_tid = int(evm.tid)
        dead = cluster[0]
        dead.hard_stop()

        # Boot the replacement node under the same node id, reusing
        # the network object the survivors are still attached to.
        network = cluster[1].pta.transport("loopback").network
        exe = Executive(node=0)
        PeerTransportAgent.attach(exe).register(
            LoopbackTransport(network), default=True
        )
        cluster[0] = exe
        evm2 = EventManager()
        exe.install(evm2, tid=evm_tid)  # BUs report DONE to this TiD
        exe.install(TriggerSource())
        # Re-derive over the current executives: the replacement's
        # devices get their routes, the survivors keep theirs.
        wire_dataflow(cluster, backpressure=False)
        evm2.snapshot_store = SnapshotStore(tmp_path / "evm.snapshot")
        assert evm2.recover() is True
        assert evm2.restores == 1
        assert evm2.in_flight == 6

        pump(cluster)
        assert evm2.completed == 6
        assert sorted(evm2.completed_ids) == list(range(1, 7))
        assert evm2.lost_events == []
        for ru in rus.values():
            assert ru.buffered_events == 0  # CLEAR went out on completion
        # Replayed triggers for known events are absorbed, not rebuilt.
        for event_id in (1, 2, 3):
            evm2.intake_trigger(event_id)
        assert evm2.duplicate_triggers == 3
        assert evm2.completed == 6
        assert_no_leaks(cluster)
        dead.pool.check_conservation()
        assert dead.pool.in_flight == 0

    def test_recover_without_store_raises(self):
        evm = EventManager()
        with pytest.raises(I2OError, match="no snapshot store"):
            evm.recover()

    def test_recover_cold_returns_false(self, tmp_path):
        evm = EventManager()
        evm.snapshot_store = SnapshotStore(tmp_path / "evm.snapshot")
        assert evm.recover() is False
        assert evm.restores == 0
