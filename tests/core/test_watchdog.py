"""Watchdog: bounding misbehaving handlers (paper §4)."""

from __future__ import annotations

import time

import pytest

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.core.states import DeviceState
from repro.core.watchdog import HandlerWatchdog, WatchdogTimeout
from repro.i2o.errors import I2OError


class TestGuardAlone:
    def test_fast_handler_passes(self):
        wd = HandlerWatchdog(limit_ns=50_000_000)
        with wd.guard("ok"):
            pass
        assert wd.overruns == 0

    def test_cooperative_overrun_detected(self):
        wd = HandlerWatchdog(limit_ns=1_000)  # 1 us budget
        with pytest.raises(WatchdogTimeout, match="budget"):
            with wd.guard("slow"):
                time.sleep(0.005)
        assert wd.overruns == 1

    def test_preemptive_interrupts_spinning_handler(self):
        wd = HandlerWatchdog(limit_ns=20_000_000, preemptive=True)  # 20 ms
        t0 = time.monotonic()
        with pytest.raises(WatchdogTimeout):
            with wd.guard("spinner"):
                while True:  # would never return cooperatively
                    sum(range(100))
        # It must have been cut off near the budget, not after seconds.
        assert time.monotonic() - t0 < 5.0
        assert wd.overruns == 1

    def test_bad_limit_rejected(self):
        with pytest.raises(I2OError):
            HandlerWatchdog(limit_ns=0)


class Spinner(Listener):
    def __init__(self, name: str = "spin") -> None:
        super().__init__(name)

    def on_plugin(self) -> None:
        self.bind(0x01, self._slow)

    def _slow(self, frame) -> None:
        if not frame.is_reply:
            time.sleep(0.01)  # 10 ms, way over budget


class TestExecutiveIntegration:
    def test_overrunning_device_is_quarantined(self):
        exe = Executive(node=0, watchdog=HandlerWatchdog(limit_ns=1_000_000))
        offender = Spinner()
        victim_tid = exe.install(offender)
        sender = Listener("sender")
        exe.install(sender)
        sender.send(victim_tid, b"", xfunction=0x01)
        sender.send(victim_tid, b"", xfunction=0x01)  # queued behind
        exe.run_until_idle()
        assert offender.state is DeviceState.FAILED
        assert exe.watchdog.overruns == 1  # queue was dropped after the first
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0

    def test_preemptive_mode_interrupts_spin_through_executive(self):
        """A handler that never returns (hard spin, no cooperative
        check-in) must still be cut off when dispatched by the
        *executive*, the device FAILED, and the frames queued behind
        the offender dropped by the quarantine."""

        class HardSpinner(Listener):
            def __init__(self):
                super().__init__("hardspin")
                self.calls = 0

            def on_plugin(self):
                self.bind(0x01, self._spin)

            def _spin(self, frame):
                if frame.is_reply:
                    return
                self.calls += 1
                while True:  # would never return cooperatively
                    sum(range(100))

        exe = Executive(
            node=0,
            watchdog=HandlerWatchdog(limit_ns=20_000_000, preemptive=True),
        )
        offender = HardSpinner()
        victim_tid = exe.install(offender)
        sender = Listener("sender")
        exe.install(sender)
        sender.send(victim_tid, b"", xfunction=0x01)
        sender.send(victim_tid, b"", xfunction=0x01)  # queued behind
        t0 = time.monotonic()
        exe.run_until_idle()
        # Cut off near the 20 ms budget, not hung forever.
        assert time.monotonic() - t0 < 5.0
        assert offender.state is DeviceState.FAILED
        assert offender.calls == 1  # second frame dropped, not dispatched
        assert exe.watchdog.overruns == 1
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0

    def test_healthy_devices_unaffected(self):
        exe = Executive(node=0, watchdog=HandlerWatchdog(limit_ns=10**9))
        dev = Spinner()
        tid = exe.install(dev)
        sender = Listener("sender")
        exe.install(sender)
        sender.send(tid, b"", xfunction=0x01)
        exe.run_until_idle()
        assert dev.state is not DeviceState.FAILED


class TestSimPlaneWatchdog:
    """Paper §4: the watchdog 'can be implemented making use of the
    I2O core timer facilities' — on the simulation plane the budget is
    checked against the handler's *modelled* cost."""

    def _build(self, limit_ns: int, handler_cost_ns: int):
        from repro.core.probes import CostModel
        from repro.core.simnode import SimNode
        from repro.sim.kernel import Simulator

        sim = Simulator()
        watchdog = HandlerWatchdog(limit_ns=limit_ns)
        exe = Executive(node=0, watchdog=watchdog)
        # The node's ledger takes the watchdog over: virtual time has
        # no wall-clock budget, so ``guard`` must not run here.
        node = SimNode(
            sim, exe, cost_model=CostModel({"application": handler_cost_ns})
        )
        assert exe.watchdog is None and node.ledger.watchdog is watchdog

        class Dev(Listener):
            def on_plugin(self):
                self.bind(0x01, lambda f: None)

        dev = Dev("modelled")
        tid = exe.install(dev)
        frame = exe.frame_alloc(0, target=tid, initiator=tid, xfunction=0x01)
        exe.post_inbound(frame)
        sim.run(until=1_000_000)
        assert exe.dispatched == 1
        return exe, dev, watchdog

    def test_modelled_overrun_quarantines(self):
        exe, dev, watchdog = self._build(limit_ns=1_000, handler_cost_ns=5_000)
        assert dev.state is DeviceState.FAILED
        assert watchdog.overruns == 1
        exe.pool.check_conservation()

    def test_modelled_within_budget_survives(self):
        exe, dev, watchdog = self._build(limit_ns=10_000, handler_cost_ns=5_000)
        assert dev.state is not DeviceState.FAILED
        assert watchdog.overruns == 0
