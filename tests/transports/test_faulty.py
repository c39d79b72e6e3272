"""The fault-injecting transport itself."""

from __future__ import annotations

import pytest

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.daq.events import FragmentError, parse_fragment, synthesize_fragment
from repro.transports.agent import PeerTransportAgent
from repro.transports.faulty import FaultPlan, FaultyLoopbackTransport
from repro.transports.loopback import LoopbackNetwork


class Sink(Listener):
    def __init__(self, name="sink"):
        super().__init__(name)
        self.payloads: list[bytes] = []

    def on_plugin(self):
        self.bind(0x1, lambda f: self.payloads.append(bytes(f.payload))
                  if not f.is_reply else None)


def build(plan: FaultPlan, seed: int = 0):
    network = LoopbackNetwork()
    exes = {}
    for node in range(2):
        exe = Executive(node=node)
        PeerTransportAgent.attach(exe).register(
            FaultyLoopbackTransport(network, plan, seed=seed + node),
            default=True,
        )
        exes[node] = exe
    sink = Sink()
    sink_tid = exes[1].install(sink)
    sender = Listener("sender")
    exes[0].install(sender)
    proxy = exes[0].routes.create_proxy(1, sink_tid)
    return exes, sender, sink, proxy


def pump(exes):
    for _ in range(10_000):
        if not any(e.step() for e in exes.values()):
            return


class TestPlanValidation:
    def test_rates_bounded(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_rate=-0.1)


class TestFaults:
    def test_no_faults_is_transparent(self):
        exes, sender, sink, proxy = build(FaultPlan())
        for i in range(10):
            sender.send(proxy, f"m{i}".encode(), xfunction=0x1)
        pump(exes)
        assert sink.payloads == [f"m{i}".encode() for i in range(10)]

    def test_drop_rate_one_loses_everything(self):
        exes, sender, sink, proxy = build(FaultPlan(drop_rate=1.0))
        for _ in range(5):
            sender.send(proxy, b"x", xfunction=0x1)
        pump(exes)
        assert sink.payloads == []
        pt = exes[0].pta.transport("faulty")
        assert pt.dropped == 5
        exes[0].pool.check_conservation()
        assert exes[0].pool.in_flight == 0  # dropped frames still freed

    def test_duplicates_counted_and_delivered_twice(self):
        exes, sender, sink, proxy = build(FaultPlan(duplicate_rate=1.0))
        sender.send(proxy, b"dup", xfunction=0x1)
        pump(exes)
        assert sink.payloads == [b"dup", b"dup"]
        assert exes[0].pta.transport("faulty").duplicated == 1

    def test_partial_drop_statistics(self):
        exes, sender, sink, proxy = build(FaultPlan(drop_rate=0.3), seed=5)
        for i in range(200):
            sender.send(proxy, bytes([i % 256]), xfunction=0x1)
            pump(exes)
        delivered = len(sink.payloads)
        assert 100 < delivered < 180  # ~140 expected

    def test_determinism_per_seed(self):
        def run(seed):
            exes, sender, sink, proxy = build(FaultPlan(drop_rate=0.5),
                                              seed=seed)
            for i in range(50):
                sender.send(proxy, bytes([i]), xfunction=0x1)
            pump(exes)
            return sink.payloads

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_corruption_lands_in_payload_and_frame_still_parses(self):
        exes, sender, sink, proxy = build(FaultPlan(corrupt_rate=1.0))
        original = bytes(range(64))
        sender.send(proxy, original, xfunction=0x1)
        pump(exes)
        assert len(sink.payloads) == 1  # delivered, not rejected
        assert sink.payloads[0] != original  # but damaged
        assert len(sink.payloads[0]) == len(original)

    def test_corruption_caught_by_daq_crc(self):
        """End-to-end integrity: the DAQ fragment CRC catches what the
        wire-level validation cannot."""
        exes, sender, sink, proxy = build(FaultPlan(corrupt_rate=1.0))
        fragment = synthesize_fragment(1, 0)
        sender.send(proxy, fragment, xfunction=0x1)
        pump(exes)
        with pytest.raises(FragmentError):
            parse_fragment(sink.payloads[0])

    def test_delay_reorders_across_poll_rounds(self):
        exes, sender, sink, proxy = build(FaultPlan(delay_rate=0.5), seed=9)
        for i in range(30):
            sender.send(proxy, bytes([i]), xfunction=0x1)
        pump(exes)
        assert sorted(sink.payloads) == [bytes([i]) for i in range(30)]
        assert sink.payloads != [bytes([i]) for i in range(30)]  # reordered
        assert exes[0].pta.transport("faulty").delayed > 0


class TestDelayedDrain:
    def test_last_message_delayed_is_not_stranded(self):
        """Regression: a delayed message with no later traffic behind
        it used to sit in the delay queue forever because promotion
        only happened when fresh arrivals were staged.  An idle wire
        must still drain within the normal pump loop."""
        exes, sender, sink, proxy = build(FaultPlan(delay_rate=1.0))
        sender.send(proxy, b"last", xfunction=0x1)
        pump(exes)
        assert sink.payloads == [b"last"]
        pt = exes[1].pta.transport("faulty")
        assert not pt.has_pending
        assert exes[0].pool.in_flight == 0

    def test_every_message_delayed_still_all_delivered(self):
        exes, sender, sink, proxy = build(FaultPlan(delay_rate=1.0))
        for i in range(10):
            sender.send(proxy, bytes([i]), xfunction=0x1)
        pump(exes)
        assert sorted(sink.payloads) == [bytes([i]) for i in range(10)]

    def test_flush_delivers_delayed_traffic_immediately(self):
        exes, sender, sink, proxy = build(FaultPlan(delay_rate=1.0))
        sender.send(proxy, b"held", xfunction=0x1)
        exes[0].step()  # transmit: lands in node 1's delay queue
        pt = exes[1].pta.transport("faulty")
        assert pt.has_pending
        assert pt.flush() is True
        pump(exes)
        assert sink.payloads == [b"held"]

    def test_flush_on_idle_wire_is_a_noop(self):
        exes, *_ = build(FaultPlan())
        assert exes[1].pta.transport("faulty").flush() is False


class TestPartition:
    def test_self_partition_cuts_both_directions(self):
        exes, sender, sink, proxy = build(FaultPlan())
        pt1 = exes[1].pta.transport("faulty")
        pt1.partition()  # node 1 falls off the network entirely
        for _ in range(3):
            sender.send(proxy, b"void", xfunction=0x1)
        pump(exes)
        assert sink.payloads == []
        assert pt1.partition_dropped == 3  # ingress dropped at poll
        assert pt1.is_cut(0)
        exes[0].pool.check_conservation()
        assert exes[0].pool.in_flight == 0

    def test_egress_partition_drops_at_transmit(self):
        exes, sender, sink, proxy = build(FaultPlan())
        pt0 = exes[0].pta.transport("faulty")
        pt0.partition(1)
        sender.send(proxy, b"x", xfunction=0x1)
        pump(exes)
        assert sink.payloads == []
        assert pt0.partition_dropped == 1
        assert exes[0].pool.in_flight == 0

    def test_heal_restores_delivery(self):
        exes, sender, sink, proxy = build(FaultPlan())
        pt1 = exes[1].pta.transport("faulty")
        pt1.partition()
        sender.send(proxy, b"lost", xfunction=0x1)
        pump(exes)
        pt1.heal()
        sender.send(proxy, b"found", xfunction=0x1)
        pump(exes)
        assert sink.payloads == [b"found"]
        assert not pt1.is_cut(0)

    def test_partial_partition_only_cuts_named_nodes(self):
        network = LoopbackNetwork()
        exes = {}
        for node in range(3):
            exe = Executive(node=node)
            PeerTransportAgent.attach(exe).register(
                FaultyLoopbackTransport(network, FaultPlan(), seed=node),
                default=True,
            )
            exes[node] = exe
        sinks = {n: Sink(f"sink{n}") for n in (1, 2)}
        tids = {n: exes[n].install(sinks[n]) for n in (1, 2)}
        sender = Listener("sender")
        exes[0].install(sender)
        exes[0].pta.transport("faulty").partition(2)
        for n in (1, 2):
            sender.send(exes[0].routes.create_proxy(n, tids[n]), b"hi",
                        xfunction=0x1)
        pump(exes)
        assert sinks[1].payloads == [b"hi"]
        assert sinks[2].payloads == []
