"""SimNode: executives as simulation processes."""

from __future__ import annotations

from repro.bench.pingpong import build_gm_cluster
from repro.core.device import Listener
from repro.core.executive import Executive
from repro.core.probes import CostModel
from repro.core.simnode import SimNode
from repro.hw.clock import SimClock
from repro.i2o.tid import EXECUTIVE_TID
from repro.sim.kernel import Simulator


class _Sink(Listener):
    def on_plugin(self):
        self.bind(0x9, lambda frame: None)


def test_simnode_replaces_clock_and_probes():
    """The node's instrument is a cost ledger on the observer seam,
    holding the record sites; the default model is the paper's."""
    sim = Simulator()
    exe = Executive(node=0)
    node = SimNode(sim, exe)
    assert isinstance(exe.clock, SimClock)
    assert node.ledger in exe.observers and exe.flightrec is node.ledger
    assert node.ledger.model == CostModel.paper_table1()


def test_costs_become_virtual_time():
    sim = Simulator()
    exe = Executive(node=0)
    node = SimNode(sim, exe, cost_model=CostModel({"demultiplex": 1000,
                                                   "upcall": 0,
                                                   "application": 0,
                                                   "postprocess": 0,
                                                   "frame_alloc": 0,
                                                   "frame_free": 0}))
    sink = _Sink()
    tid = exe.install(sink)
    for _ in range(5):
        frame = exe.frame_alloc(0, target=tid, initiator=tid, xfunction=0x9)
        exe.post_inbound(frame)
    sim.run(until=1_000_000)
    # 5 dispatches x 1000 ns demultiplex cost = 5 us of busy time.
    assert node.busy_ns == 5_000


def test_idle_node_wakes_on_post():
    sim = Simulator()
    exe = Executive(node=0)
    SimNode(sim, exe, cost_model=CostModel({}, default_ns=10))
    sink = _Sink()
    tid = exe.install(sink)

    def inject():
        frame = exe.frame_alloc(0, target=tid, initiator=tid, xfunction=0x9)
        exe.post_inbound(frame)

    sim.at(50_000, inject)
    sim.run(until=1_000_000)
    assert exe.dispatched == 1


def test_halt_stops_the_process():
    sim = Simulator()
    exe = Executive(node=0)
    node = SimNode(sim, exe)
    node.halt()
    sim.run(until=10_000)
    assert node.process.done.fired


def test_gm_cluster_round_trip_deterministic():
    """Same seedless deterministic kernel: two runs, identical RTTs."""

    def run_once():
        cluster = build_gm_cluster()
        cluster.ping.configure(cluster.ping.peer, 128, 20)
        cluster.sim.at(0, cluster.ping.kick)
        cluster.sim.run()
        return cluster.ping.rtts_ns

    assert run_once() == run_once()


def test_gm_cluster_node_busy_accounting():
    cluster = build_gm_cluster()
    cluster.ping.configure(cluster.ping.peer, 128, 10)
    cluster.sim.at(0, cluster.ping.kick)
    cluster.sim.run()
    # Echo node handles 10 messages at ~9.7 us modelled each.
    assert cluster.node_b.busy_ns == 10 * 9_700


def _echo_run(attach_ring):
    """Ten GM round trips; ``attach_ring(exe) -> FlightRecorder | None``
    runs once the SimNodes are built."""
    cluster = build_gm_cluster()
    rings = [attach_ring(exe) for exe in (cluster.exe_a, cluster.exe_b)]
    cluster.ping.configure(cluster.ping.peer, 128, 10)
    cluster.sim.at(0, cluster.ping.kick)
    cluster.sim.run()
    return cluster, rings


def test_ring_beside_the_ledger_sees_every_fact_and_costs_nothing():
    """A sim-plane node can carry a flight recorder too: the ledger
    passes each fact on, and virtual time does not move."""
    from repro.flightrec.recorder import FlightRecorder
    from repro.flightrec.records import EV_FRAME_ALLOC, EV_FRAME_INGEST

    bare, _ = _echo_run(lambda exe: None)
    ringed, rings = _echo_run(lambda exe: exe.attach(FlightRecorder()))
    assert ringed.ping.rtts_ns == bare.ping.rtts_ns
    assert ringed.node_b.busy_ns == bare.node_b.busy_ns
    assert ringed.exe_b.flightrec is ringed.node_b.ledger
    kinds = [r.kind for r in rings[1].records]
    assert kinds.count(EV_FRAME_INGEST) == 10
    assert kinds.count(EV_FRAME_ALLOC) == 20  # rx block + the echo's reply
    # Detaching the recorder leaves the ledger on the record sites.
    ringed.exe_b.detach(rings[1])
    assert ringed.exe_b.flightrec is ringed.node_b.ledger
    assert ringed.node_b.ledger.ring is None


def test_ledger_adopts_a_recorder_attached_first():
    from repro.flightrec.recorder import FlightRecorder

    sim = Simulator()
    exe = Executive(node=0)
    ring = exe.attach(FlightRecorder())
    node = SimNode(sim, exe)
    assert exe.flightrec is node.ledger and node.ledger.ring is ring
    exe.frame_free(exe.frame_alloc(0, target=EXECUTIVE_TID))
    assert ring.total_records == 2
    assert node.ledger.accrued_ns == 2180 + 1780
    exe.detach(node.ledger)
    assert exe.flightrec is ring


def test_ringed_sim_node_keeps_stamping_trace_ids():
    """The ledger holds ``exe.flightrec``, so ``frame_send`` stamps
    through it: the ring behind it mints the ids, and stamping costs
    virtual time nothing."""
    from repro.core.tracing import is_trace_context
    from repro.flightrec.recorder import FlightRecorder
    from repro.flightrec.records import EV_DISPATCH

    bare, _ = _echo_run(lambda exe: None)
    ringed, rings = _echo_run(lambda exe: exe.attach(FlightRecorder()))
    assert ringed.ping.rtts_ns == bare.ping.rtts_ns
    assert ringed.node_a.busy_ns == bare.node_a.busy_ns
    assert ringed.node_b.busy_ns == bare.node_b.busy_ns
    for ring in rings:
        contexts = [r.a for r in ring.records if r.kind == EV_DISPATCH]
        assert contexts and all(is_trace_context(c) for c in contexts)
