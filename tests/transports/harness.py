"""Shared cross-transport test rig.

Every peer transport honours the same contract (deliver addressed
frames between executives, exactly once, with balanced counters and no
pool leaks) but needs a different way of *driving* the cluster: the
in-process transports are stepped, TCP runs threaded executives and
waits on wall time, the simulation-plane transports run under the
discrete-event kernel.  A :class:`TransportHarness` hides that
difference behind ``run_until`` so one conformance module
(``test_conformance.py``) can exercise them all, and the per-transport
modules import :class:`Echo` / :class:`Caller` from here instead of
re-declaring them.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.core.probes import CostModel
from repro.core.simnode import SimNode
from repro.hw.myrinet import Fabric
from repro.hw.pci import IopBoard, PciBus
from repro.sim.kernel import Simulator
from repro.transports.agent import PeerTransportAgent
from repro.transports.faulty import FaultPlan, FaultyLoopbackTransport
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport
from repro.transports.queued import QueuePair, QueueTransport
from repro.transports.simgm import SimGmTransport
from repro.transports.simpci import SimPciTransport
from repro.transports.tcp import TcpTransport


class Echo(Listener):
    """Replies to xfunction 0x1 with the request payload."""

    def on_plugin(self):
        self.bind(0x1, self._h)

    def _h(self, frame):
        if not frame.is_reply:
            self.reply(frame, frame.payload)


class Caller(Listener):
    """Records echo replies (0x1) and failure verdicts (0x2), plus the
    ``transaction_context`` each reply carried (trace propagation)."""

    def __init__(self, name="caller"):
        super().__init__(name)
        self.replies: list[bytes] = []
        self.failures: list[bool] = []
        self.reply_contexts: list[int] = []

    def on_plugin(self):
        self.bind(0x1, self._on_echo_reply)
        self.bind(0x2, lambda f: self.failures.append(f.is_failure)
                  if f.is_reply else None)

    def _on_echo_reply(self, frame):
        if frame.is_reply:
            self.replies.append(bytes(frame.payload))
            self.reply_contexts.append(frame.transaction_context)


class Keeper(Listener):
    """Records the payload of every frame it is sent (xfunction 0x1)."""

    def __init__(self, name="keeper"):
        super().__init__(name)
        self.payloads: list[bytes] = []

    def on_plugin(self):
        self.bind(0x1, lambda f: self.payloads.append(bytes(f.payload)))


# -- a raw client against one stepped TCP node -----------------------------------
def make_lone_tcp() -> tuple[Executive, TcpTransport]:
    """One unstarted executive with a listening TCP transport."""
    exe = Executive(node=0)
    pt = TcpTransport(name="tcp")
    PeerTransportAgent.attach(exe).register(pt, default=True)
    return exe, pt


def step_until(exe: Executive, predicate, timeout: float = 5.0) -> bool:
    """Step an unstarted executive until ``predicate`` holds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        if not exe.step():
            time.sleep(0.001)
    return True


def dial_raw(pt: TcpTransport) -> socket.socket:
    """A non-blocking raw client connected to ``pt``'s listener."""
    sock = socket.create_connection(("127.0.0.1", pt.bound_port), timeout=1)
    sock.setblocking(False)
    return sock


def hung_up(raw: socket.socket) -> bool:
    """True once the transport closed its end (EOF, not just silence)."""
    try:
        return raw.recv(1) == b""
    except BlockingIOError:
        return False


@dataclass
class TransportHarness:
    """A two-node cluster plus the knowledge of how to drive it."""

    name: str
    exes: dict[int, Executive]
    pts: dict[int, object]
    _run_until: Callable[[Callable[[], bool]], bool]
    _cleanup: Callable[[], None] = field(default=lambda: None)
    #: does the transport preserve send order end to end?
    ordered: bool = True
    #: burst size for the exactly-once test (kept under the smallest
    #: queue/token depth of the modelled hardware)
    burst: int = 24
    #: large-payload size that must still cross intact
    big_size: int = 16 * 1024
    #: payload copies per frame this transport may perform, (tx, rx) —
    #: filled in from the :data:`FACTORIES` entry by :func:`make_harness`
    copy_budget: tuple[int, int] = (0, 0)

    def run_until(self, predicate: Callable[[], bool]) -> bool:
        return self._run_until(predicate)

    def enable_tracing(self, capacity: int = 512) -> dict[int, "FlightRecorder"]:
        """Install a flight-recorder ring (which stamps trace ids) on
        every executive; returns the recorders by node so tests can
        project the recorded hops."""
        from repro.flightrec.recorder import FlightRecorder

        recorders = {}
        for node, exe in self.exes.items():
            recorders[node] = exe.attach(FlightRecorder(capacity=capacity))
        return recorders

    def assert_copy_budget(self) -> None:
        """Every PT copied exactly its budget per frame, both ways."""
        tx_rate, rx_rate = self.copy_budget
        for pt in self.pts.values():
            assert pt.tx_copies == tx_rate * pt.frames_sent, (
                f"{self.name}: {pt.tx_copies} tx copies for "
                f"{pt.frames_sent} sent frames"
            )
            assert pt.rx_copies == rx_rate * pt.frames_received, (
                f"{self.name}: {pt.rx_copies} rx copies for "
                f"{pt.frames_received} received frames"
            )

    def finish(self) -> None:
        from repro.analysis.sanitize import assert_clean

        # Drain whatever is still staged or queued so the leak check
        # below judges a settled cluster, not in-transit frames.
        self.run_until(lambda: all(exe.idle for exe in self.exes.values()))
        self._cleanup()
        for exe in self.exes.values():
            exe.pool.check_conservation()
            # Canary scan + leak tracebacks; no-op unless REPRO_SANITIZE=1.
            # First, so a leak names the site that allocated the block.
            assert_clean(exe.pool)
            assert exe.pool.in_flight == 0, (
                f"{self.name}: {exe.pool.in_flight} blocks leaked"
            )


def _stepped(exes: dict[int, Executive], budget: int = 50_000):
    def run_until(predicate):
        for _ in range(budget):
            if predicate():
                return True
            if not any(exe.step() for exe in exes.values()):
                return predicate()
        return predicate()

    return run_until


def _two_executives() -> dict[int, Executive]:
    return {node: Executive(node=node) for node in range(2)}


def make_loopback() -> TransportHarness:
    network = LoopbackNetwork()
    exes = _two_executives()
    pts = {}
    for node, exe in exes.items():
        pts[node] = LoopbackTransport(network)
        PeerTransportAgent.attach(exe).register(pts[node], default=True)
    return TransportHarness("loopback", exes, pts, _stepped(exes))


def make_faulty_clean() -> TransportHarness:
    """The fault-injection transport with an all-zero plan must behave
    exactly like a clean loopback."""
    network = LoopbackNetwork()
    exes = _two_executives()
    pts = {}
    for node, exe in exes.items():
        pts[node] = FaultyLoopbackTransport(network, FaultPlan(), seed=node)
        PeerTransportAgent.attach(exe).register(pts[node], default=True)
    return TransportHarness("faulty", exes, pts, _stepped(exes))


def make_queued() -> TransportHarness:
    pair = QueuePair(0, 1)
    exes = _two_executives()
    pts = {}
    for node, exe in exes.items():
        pts[node] = QueueTransport(pair, name="q", mode="polling")
        PeerTransportAgent.attach(exe).register(pts[node], default=True)
    return TransportHarness("queued", exes, pts, _stepped(exes))


def make_tcp() -> TransportHarness:
    exes = _two_executives()
    pts = {}
    for node, exe in exes.items():
        pts[node] = TcpTransport(name="tcp")
        PeerTransportAgent.attach(exe).register(pts[node], default=True)
    pts[0].add_peer(1, "127.0.0.1", pts[1].bound_port)
    pts[1].add_peer(0, "127.0.0.1", pts[0].bound_port)
    for exe in exes.values():
        exe.start()

    def run_until(predicate, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.002)
        return predicate()

    def cleanup():
        for exe in exes.values():
            exe.stop()
        for pt in pts.values():
            pt.shutdown()

    # Two threaded executives: replies can interleave, so only the
    # exactly-once half of the ordering contract applies.
    return TransportHarness("tcp", exes, pts, run_until, cleanup,
                            ordered=False)


def _sim_harness(name, exes, pts, sim) -> TransportHarness:
    def run_until(predicate):
        sim.run()
        return predicate()

    return TransportHarness(name, exes, pts, run_until)


def make_simgm() -> TransportHarness:
    sim = Simulator()
    fabric = Fabric(sim)
    exes = _two_executives()
    pts = {}
    nodes = {}
    for node, exe in exes.items():
        nodes[node] = SimNode(sim, exe, cost_model=CostModel.paper_table1())
        pts[node] = SimGmTransport(fabric)
        PeerTransportAgent.attach(exe).register(pts[node], default=True)
        nodes[node].attach_transport_hooks()
    return _sim_harness("simgm", exes, pts, sim)


def make_simpci() -> TransportHarness:
    sim = Simulator()
    board = IopBoard(sim, PciBus(sim), hardware_fifos=True)
    exes = _two_executives()
    host_pt, iop_pt = SimPciTransport.pair(sim, board, host_node=0, iop_node=1)
    pts = {0: host_pt, 1: iop_pt}
    for node, exe in exes.items():
        sim_node = SimNode(sim, exe, cost_model=CostModel.paper_table1())
        PeerTransportAgent.attach(exe).register(pts[node], default=True)
        sim_node.attach_transport_hooks()
    return _sim_harness("simpci", exes, pts, sim)


#: The one place a conformance transport is declared: how to build
#: its two-node cluster, and the payload copies per frame it may
#: perform, (tx, rx).  Intra-process delivery hands the pool block
#: over (0, 0); TCP pays exactly the receive-side copy off the wire;
#: the simulation-plane models serialise onto the modelled wire and
#: copy off it (1, 1).
FACTORIES: dict[str, tuple[Callable[[], TransportHarness], tuple[int, int]]] = {
    "loopback": (make_loopback, (0, 0)),
    "faulty": (make_faulty_clean, (0, 0)),  # clean plan: plain loopback
    "queued": (make_queued, (0, 0)),
    "tcp": (make_tcp, (0, 1)),
    "simgm": (make_simgm, (1, 1)),
    "simpci": (make_simpci, (1, 1)),
}


def make_harness(name: str) -> TransportHarness:
    factory, budget = FACTORIES[name]
    harness = factory()
    harness.copy_budget = budget
    return harness
