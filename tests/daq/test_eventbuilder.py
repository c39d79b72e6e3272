"""The distributed event builder, over multiple transports."""

from __future__ import annotations


from repro.config.bootstrap import bootstrap
from repro.daq.builder import BuilderUnit
from repro.daq.events import fragment_size
from repro.daq.manager import EventManager
from repro.daq.readout import ReadoutUnit
from repro.daq.trigger import TriggerSource
from repro.dataflow.examples import event_builder_spec
from repro.dataflow.wiring import wire_dataflow

from tests.conftest import (
    ManualClock,
    assert_no_leaks,
    make_loopback_cluster,
    pump,
)


def wire_daq(cluster, n_ru=2, n_bu=2, mean_fragment=512, window=None):
    """Standard topology: node 0 = evm+trigger, then RUs, then BUs.

    Routes are uncapped unless ``window`` is given: then every edge
    carries credits, and the EVM's queue capacity (so its trigger
    edge's window) is ``window`` events in flight."""
    evm, trigger = EventManager(), TriggerSource()
    if window is not None:
        evm.queue_capacity = window
    cluster[0].install(evm)
    cluster[0].install(trigger)
    rus = {i: ReadoutUnit(ru_id=i, mean_fragment=mean_fragment)
           for i in range(n_ru)}
    for i, ru in rus.items():
        cluster[1 + i].install(ru)
    bus = {i: BuilderUnit(bu_id=i) for i in range(n_bu)}
    for i, bu in bus.items():
        cluster[1 + n_ru + i].install(bu)
    wire_dataflow(cluster, backpressure=window is not None)
    return evm, trigger, rus, bus


class TestLoopbackEventBuilding:
    def test_every_trigger_becomes_a_built_event(self, five_nodes):
        evm, trigger, rus, bus = wire_daq(five_nodes)
        trigger.fire_burst(20)
        pump(five_nodes)
        assert evm.triggers == 20
        assert evm.completed == 20
        assert evm.in_flight == 0

    def test_round_robin_between_builders(self, five_nodes):
        evm, trigger, rus, bus = wire_daq(five_nodes)
        trigger.fire_burst(10)
        pump(five_nodes)
        assert bus[0].built == 5
        assert bus[1].built == 5

    def test_rewire_keeps_the_builder_ring_position(self, five_nodes):
        """Re-deriving the routes with the same builders (a node
        rejoined elsewhere) does not restart the round robin."""
        evm, trigger, rus, bus = wire_daq(five_nodes)
        trigger.fire()
        pump(five_nodes)
        wire_dataflow(five_nodes, backpressure=False)
        trigger.fire()
        pump(five_nodes)
        assert [bu.built for bu in bus.values()] == [1, 1]

    def test_built_sizes_match_generator(self, five_nodes):
        evm, trigger, rus, bus = wire_daq(five_nodes)
        trigger.fire_burst(6)
        pump(five_nodes)
        for bu in bus.values():
            for event_id, size in bu.completed:
                expected = sum(
                    fragment_size(event_id, ru_id, mean=512)
                    for ru_id in rus
                )
                assert size == expected

    def test_buffers_cleared_after_completion(self, five_nodes):
        evm, trigger, rus, bus = wire_daq(five_nodes)
        trigger.fire_burst(15)
        pump(five_nodes)
        for ru in rus.values():
            assert ru.buffered_events == 0
            assert ru.cleared == 15

    def test_no_corrupt_fragments(self, five_nodes):
        evm, trigger, rus, bus = wire_daq(five_nodes)
        trigger.fire_burst(10)
        pump(five_nodes)
        assert all(bu.corrupt == 0 for bu in bus.values())

    def test_request_before_readout_is_parked(self, five_nodes):
        """Builder fragment requests racing ahead of readout commands
        must be parked, not failed."""
        evm, trigger, rus, bus = wire_daq(five_nodes)
        # Bypass the EVM: ask a BU to build an event the RUs have
        # never heard of, then trigger readout afterwards.
        bu = bus[0]
        from repro.daq.protocol import EVENT_ID, XF_REQUEST_FRAGMENT

        bu._pending[999] = {}
        for ru_tid in bu.ru_tids.values():
            bu.send(ru_tid, EVENT_ID.pack(999),
                    xfunction=XF_REQUEST_FRAGMENT)
        pump(five_nodes)
        assert any(ru.parked_requests for ru in rus.values())
        # Now the readout command arrives late.
        from repro.daq.protocol import XF_READOUT

        for i, ru_tid in evm.ru_tids.items():
            evm.send(ru_tid, EVENT_ID.pack(999), xfunction=XF_READOUT)
        pump(five_nodes)
        assert bu.built == 1
        assert all(ru.parked_requests == 0 for ru in rus.values())

    def test_single_ru_single_bu_minimal(self):
        cluster = make_loopback_cluster(3)
        evm, trigger, rus, bus = wire_daq(cluster, n_ru=1, n_bu=1)
        trigger.fire()
        pump(cluster)
        assert evm.completed == 1
        assert_no_leaks(cluster)

    def test_larger_cluster_4x3(self):
        cluster = make_loopback_cluster(8)  # 1 + 4 RU + 3 BU
        evm, trigger, rus, bus = wire_daq(cluster, n_ru=4, n_bu=3)
        trigger.fire_burst(30)
        pump(cluster)
        assert evm.completed == 30
        assert sum(bu.built for bu in bus.values()) == 30
        assert_no_leaks(cluster)


class TestTimerDrivenTrigger:
    def test_enable_starts_periodic_triggers(self, five_nodes):
        evm, trigger, rus, bus = wire_daq(five_nodes)

        clock = ManualClock()
        five_nodes[0].clock = clock
        trigger.parameters["interval_ns"] = "1000"
        trigger.max_events = 3
        trigger.set_state(trigger.state.__class__.ENABLED)
        trigger.on_enable()
        for step in range(1, 6):
            clock.t = step * 1000
            pump(five_nodes)
        assert trigger.fired == 3
        assert evm.completed == 3


class TestOverQueueTransport:
    def test_same_application_over_queue_wires(self):
        """The identical DAQ code on a different transport - paper's
        'exchange the hardware, keep the application'."""
        cluster = bootstrap(event_builder_spec(
            2, 2, transport="queue-mesh", dataflow={"backpressure": False}
        ))
        evm = cluster.device("evm")
        cluster.device("trigger").fire_burst(8)
        cluster.pump()
        assert evm.completed == 8
        assert_no_leaks(cluster.executives)


class TestTriggerUnderSaturation:
    def test_shed_triggers_are_not_counted_as_fired(self):
        """An over-capacity burst against credit-capped routes: what
        the trigger says went out is what the event manager received,
        and the refused rest is on the trigger's own ``shed`` count."""
        cluster = bootstrap(event_builder_spec(2, 2))
        trigger, evm = cluster.device("trigger"), cluster.device("evm")
        ids = trigger.fire_burst(1000)
        cluster.pump()
        assert trigger.shed > 0  # the burst really overran the route
        assert trigger.fired + trigger.shed == 1000
        assert evm.triggers == trigger.fired
        # A shed trigger consumed no event id: ids dense over fired.
        assert ids == list(range(1, trigger.fired + 1))
        assert trigger.next_event_id == trigger.fired + 1
        assert trigger.export_counters()["shed"] == trigger.shed
