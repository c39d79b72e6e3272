"""Re-plug conformance: every device class survives uninstall + install.

``Executive.uninstall`` carries a device's timers out and ``install``
re-arms them under the same ids (``core.timer``), so no device needs
re-arm code of its own.  This module holds every class to that rule
without naming them.  Each source — every example, and the bootstrap
sections over the event-builder topology — runs once to learn which
classes it installs and how many frames the first instance of each
handles (or, for one that handles none, how often its executive
steps).  Then it runs once per class, with that instance uninstalled
and installed again at its TiD at a seeded point mid-workload: the
first frame boundary past that point where the device has no frame in
its custody but a timer expiry.  Uninstall releases the frames queued
for a device and the device releases the ones it RETAINed (the readout
unit's parked requests), by contract; the timers it carries.  The
source must still finish its own workload (its own asserts), with 0
handler errors, clean pools, and no armed timer naming a TiD that has
no device.  The builtin air-traffic topology's classes are covered by
its example.  Pools are sanitized (``REPRO_SANITIZE=1``).
"""

from __future__ import annotations

import collections
import contextlib
import io
import random
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import pytest

from repro.config.bootstrap import bootstrap
from repro.core.device import RETAIN
from repro.core.executive import Executive
from repro.dataflow.examples import event_builder_spec
from repro.i2o.function_codes import EXEC_TIMER_EXPIRED
from repro.transports.agent import PeerTransportAgent
from repro.transports.base import PeerTransport

from tests.conftest import ManualClock

SEED = 7
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Classes never re-plugged, with the reason.
SKIPPED = {
    PeerTransportAgent: "infrastructure: ExecDdmDestroy refuses it, and "
                        "the transports it owns would go with it",
    PeerTransport: "peer transports: the PTA owns them",
}


def _skip_reason(cls: type) -> str | None:
    return next(
        (why for base, why in SKIPPED.items() if issubclass(cls, base)), None
    )


def _example(name: str) -> Callable[[Path], None]:
    def run(tmp_path: Path) -> None:
        path = str(EXAMPLES / f"{name}.py")
        argv = sys.argv
        sys.argv = [path]  # event_builder reads its event count from argv
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(path, run_name="__main__")
        finally:
            sys.argv = argv
    return run


def _sectioned_event_builder(tmp_path: Path) -> None:
    """The builtin event builder with every section that adds devices:
    heartbeats, telemetry agents and collector, EVM snapshots; EVM
    deadlines and beats both arm timers."""
    spec = event_builder_spec(2, 2, dataflow={"backpressure": False})
    spec["nodes"][0]["devices"][1]["kwargs"] = {"event_timeout_ns": 20_000}
    spec["supervision"] = {"interval_ns": 1_000}
    spec["observability"] = {}
    spec["durability"] = {"dir": str(tmp_path)}
    cluster = bootstrap(spec, clock=ManualClock())
    cluster.start_supervision()
    evm = cluster.device("evm")
    cluster.device("trigger").fire_burst(8)
    for _ in range(25):
        cluster.clock.t += 1_000
        cluster.pump()
    collector = cluster.collector
    collector.sweep()
    cluster.pump()
    assert (evm.completed, evm.in_flight, evm.lost_events) == (8, 0, [])
    for exe in cluster.executives.values():
        assert exe.peers.dead_nodes() == []
    assert sorted(collector.watched) == sorted(cluster.executives)


SOURCES: dict[str, Callable[[Path], None]] = {
    **{name: _example(name) for name in sorted(
        path.stem for path in EXAMPLES.glob("*.py"))},
    "bootstrap-sections": _sectioned_event_builder,
}


def _timers_of(exe: Executive, tid: int) -> list[int]:
    """Ids of the timers armed for ``tid``."""
    return sorted(
        timer_id for timer_id, (owner, _, _) in exe.timers._live.items()
        if owner == tid
    )


def _orphan_timers(exe: Executive) -> set[int]:
    """TiDs an armed timer names that have no device."""
    return {
        int(owner) for owner, _, _ in exe.timers._live.values()
    } - set(exe.devices())


def _queued(exe: Executive, tid: int) -> list:
    """Frames waiting in ``exe``'s scheduler for ``tid``, timer
    expiries left out."""
    return [
        frame for _, queues in exe.scheduler._levels
        for frame in queues.get(tid, ())
        if frame.function != EXEC_TIMER_EXPIRED
    ]


class Replug:
    """Counts the frames the first instance of each class handles and
    its executive's steps.  Given a ``target`` class name, re-plugs that
    instance between two of its executive's dispatches (or, ``by_steps``,
    steps) once ``after`` frames were handled (``after`` steps taken)
    and no frame but a timer expiry waits for it or is held by it."""

    def __init__(
        self, target: str | None = None, after: int = 0, by_steps: bool = False
    ) -> None:
        self.target, self.after, self.by_steps = target, after, by_steps
        self.first: dict[str, object] = {}
        self.handled: collections.Counter[str] = collections.Counter()
        self.steps: collections.Counter[str] = collections.Counter()
        self.executives: dict[int, Executive] = {}
        #: frames the target returned RETAIN for and has not freed
        self.held: set[int] = set()
        self.replugged = 0

    def _maybe_replug(self, exe: Executive) -> None:
        device = self.first.get(self.target)
        reached = self.steps if self.by_steps else self.handled
        if (self.replugged or device is None or device.executive is not exe
                or reached[self.target] < self.after
                or self.held or _queued(exe, device.tid)):
            return
        self.replugged += 1
        tid = device.tid
        armed = _timers_of(exe, tid)
        exe.uninstall(tid)
        exe.install(device, tid=tid)
        assert _timers_of(exe, tid) == armed  # the same ids, re-armed
        assert _orphan_timers(exe) == set()

    def patch(self, monkeypatch: pytest.MonkeyPatch) -> None:
        install, step = Executive.install, Executive.step
        dispatch_one, frame_free = Executive._dispatch_one, Executive.frame_free

        def counted_install(exe, device, tid=None):
            self.executives[id(exe)] = exe
            name = type(device).__qualname__
            if name not in self.first:
                self.first[name] = device
                lookup = device.table.lookup

                def counting(frame):
                    self.handled[name] += 1
                    functor = lookup(frame)
                    if name != self.target:
                        return functor

                    def holding(frame):
                        handler = functor.prepare(frame)

                        def run(frame):
                            result = handler(frame)
                            if result is RETAIN:
                                self.held.add(id(frame))
                            return result
                        return run
                    return SimpleNamespace(prepare=holding)

                device.table.lookup = counting
            return install(exe, device, tid)

        def replugging_step(exe):
            for name, dev in self.first.items():
                if dev.executive is exe:
                    self.steps[name] += 1
            if self.by_steps:
                self._maybe_replug(exe)
            return step(exe)

        def freeing(exe, frame):
            self.held.discard(id(frame))
            return frame_free(exe, frame)

        def replugging_dispatch(exe):
            worked = dispatch_one(exe)
            if not self.by_steps:
                self._maybe_replug(exe)
            return worked

        monkeypatch.setattr(Executive, "install", counted_install)
        monkeypatch.setattr(Executive, "step", replugging_step)
        monkeypatch.setattr(Executive, "_dispatch_one", replugging_dispatch)
        monkeypatch.setattr(Executive, "frame_free", freeing)


def _run(source, tmp_path, monkeypatch, replug: Replug) -> Replug:
    with monkeypatch.context() as patch:
        replug.patch(patch)
        SOURCES[source](tmp_path)
    return replug


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_every_class_survives_a_replug(source, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    dry = _run(source, tmp_path / "dry", monkeypatch, Replug())
    classes = sorted(
        name for name, device in dry.first.items()
        if _skip_reason(type(device)) is None
    )
    assert classes, f"{source} installs no device it may re-plug"
    for name in classes:
        by_steps = dry.handled[name] == 0
        span = (dry.steps if by_steps else dry.handled)[name]
        after = random.Random(f"{SEED}:{source}:{name}").randint(
            1, max(1, span - 1)
        )
        run = _run(source, tmp_path / name, monkeypatch,
                   Replug(name, after, by_steps))
        assert run.replugged == 1, f"{name} was never re-plugged"
        for exe in run.executives.values():
            assert exe.handler_errors == 0, f"{name}: node {exe.node}"
            exe.pool.check_conservation()
            assert exe.pool.in_flight == 0, f"{name}: node {exe.node}"
            assert _orphan_timers(exe) == set(), f"{name}: node {exe.node}"



def test_a_journaled_sender_replugged_holding_an_accepted_batch(
    tmp_path, monkeypatch
):
    """The re-plug lands after ``send_reliable`` accepted a batch and
    before the flush timer committed it: unplug journals the batch, the
    carried flush timer posts it after the re-install (the replay leaves
    sends still accepted to it), and the receiver delivers every message
    exactly once."""
    from repro.core.reliable import ReliableEndpoint
    from repro.durable.segments import SegmentStore
    from repro.transports.loopback import LoopbackNetwork, LoopbackTransport

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    replug = Replug("ReliableEndpoint", after=10**9, by_steps=True)
    with monkeypatch.context() as patch:
        replug.patch(patch)
        network, clock = LoopbackNetwork(), ManualClock()
        exes = [Executive(node=node, clock=clock) for node in (0, 1)]
        for exe in exes:
            PeerTransportAgent.attach(exe).register(
                LoopbackTransport(network), default=True)
        tx = ReliableEndpoint("tx", retransmit_ns=1000,
                              journal=SegmentStore(tmp_path / "tx.journal"))
        exes[0].install(tx)  # the first of its class: the one re-plugged
        rx = ReliableEndpoint("rx", retransmit_ns=1000)
        received = []
        rx.consumer = lambda src, data: received.append(bytes(data))
        exes[1].install(rx)
        peer = exes[0].routes.create_proxy(1, rx.tid)
        held = []
        real_unplug = tx.on_unplug

        def unplug():
            held.append((tx.in_flight, tx.journal_depth))
            real_unplug()
            held.append((tx.in_flight, tx.journal_depth))

        monkeypatch.setattr(tx, "on_unplug", unplug)

        def pump():
            for _ in range(20):
                clock.t += 1000
                while any(exe.step() for exe in exes):
                    pass

        messages = [b"m%d" % i for i in range(12)]
        for payload in messages[:4]:
            tx.send_reliable(peer, payload)
        pump()
        for payload in messages[4:]:
            tx.send_reliable(peer, payload)
        replug.after = replug.steps["ReliableEndpoint"] + 1
        pump()
    assert replug.replugged == 1
    assert held == [(8, 0), (8, 8)]  # accepted; journaled by the unplug
    assert received == messages
    assert tx.in_flight == tx.journal_depth == 0
    assert rx.duplicates_suppressed == tx.retransmissions == 0
    for exe in exes:
        assert exe.handler_errors == 0
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0
        assert _orphan_timers(exe) == set()
