"""Interrupts delivered as I2O messages."""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.i2o.frame import Frame


class IrqUser(Listener):
    def __init__(self, name: str = "irq-user") -> None:
        super().__init__(name)
        self.interrupts: list[tuple[int, bytes]] = []

    def on_interrupt(self, irq: int, frame: Frame) -> None:
        self.interrupts.append((irq, bytes(frame.payload)))


@pytest.fixture
def rig():
    exe = Executive(node=0)
    dev = IrqUser()
    exe.install(dev)
    return exe, dev


class TestSoftwareInterrupts:
    def test_registered_device_receives_irq_frame(self, rig):
        exe, dev = rig
        exe.interrupts.register(7, dev.tid)
        assert exe.interrupts.raise_irq(7, b"ctx") == 1
        exe.run_until_idle()
        assert dev.interrupts == [(7, b"ctx")]

    def test_unregistered_irq_goes_nowhere(self, rig):
        exe, dev = rig
        assert exe.interrupts.raise_irq(5) == 0
        exe.run_until_idle()
        assert dev.interrupts == []

    def test_fan_out_to_multiple_listeners(self, rig):
        exe, dev = rig
        second = IrqUser("second")
        exe.install(second)
        exe.interrupts.register(3, dev.tid)
        exe.interrupts.register(3, second.tid)
        assert exe.interrupts.raise_irq(3) == 2
        exe.run_until_idle()
        assert dev.interrupts == [(3, b"")]
        assert second.interrupts == [(3, b"")]

    def test_unregister(self, rig):
        exe, dev = rig
        exe.interrupts.register(3, dev.tid)
        exe.interrupts.unregister(3, dev.tid)
        assert exe.interrupts.raise_irq(3) == 0

    def test_duplicate_registration_delivered_once(self, rig):
        exe, dev = rig
        exe.interrupts.register(3, dev.tid)
        exe.interrupts.register(3, dev.tid)
        assert exe.interrupts.raise_irq(3) == 1

    def test_interrupts_preempt_ordinary_traffic(self, rig):
        """Priority 0: an interrupt raised after data is queued is
        still dispatched first."""
        exe, dev = rig
        order = []
        dev.bind(0x1, lambda f: order.append("data"))
        dev.on_interrupt = lambda irq, f: order.append("irq")  # type: ignore
        frame = exe.frame_alloc(0, target=dev.tid, initiator=dev.tid,
                                xfunction=0x1)
        exe.post_inbound(frame)
        exe.interrupts.register(1, dev.tid)
        exe.interrupts.raise_irq(1)
        exe.run_until_idle()
        assert order == ["irq", "data"]


class TestOsSignalBridge:
    def test_sigusr1_becomes_a_frame(self, rig):
        exe, dev = rig
        exe.interrupts.register(signal.SIGUSR1, dev.tid)
        exe.interrupts.attach_signal(signal.SIGUSR1)
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
            exe.run_until_idle()
        finally:
            exe.interrupts.detach_signal(signal.SIGUSR1)
        assert dev.interrupts == [(signal.SIGUSR1, b"")]

    def test_custom_irq_mapping(self, rig):
        exe, dev = rig
        exe.interrupts.register(99, dev.tid)
        exe.interrupts.attach_signal(signal.SIGUSR2, irq=99)
        try:
            os.kill(os.getpid(), signal.SIGUSR2)
            exe.run_until_idle()
        finally:
            exe.interrupts.detach_signal(signal.SIGUSR2)
        assert dev.interrupts == [(99, b"")]

    def test_detach_restores_previous_handler(self, rig):
        exe, _ = rig
        before = signal.getsignal(signal.SIGUSR1)
        exe.interrupts.attach_signal(signal.SIGUSR1)
        exe.interrupts.detach_signal(signal.SIGUSR1)
        assert signal.getsignal(signal.SIGUSR1) is before
