"""The I2O timer facility: expirations arrive as frames."""

from __future__ import annotations

import pytest

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.core.probes import CostModel
from repro.core.simnode import SimNode
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.sim.kernel import Simulator

from tests.conftest import ManualClock, drain_queues


class TimerUser(Listener):
    def __init__(self, name: str = "tu") -> None:
        super().__init__(name)
        self.expiries: list[tuple[int, int]] = []  # (context, at_ns)

    def on_timer(self, context: int, frame: Frame) -> None:
        self.expiries.append((context, self._require_live().clock.now_ns()))


@pytest.fixture
def clocked():
    clock = ManualClock()
    exe = Executive(node=0, clock=clock)
    dev = TimerUser()
    exe.install(dev)
    return clock, exe, dev


class TestOneShot:
    def test_fires_after_deadline_as_frame(self, clocked):
        clock, exe, dev = clocked
        dev.start_timer(1000, context=7)
        exe.run_until_idle()
        assert dev.expiries == []  # not yet due
        clock.t = 999
        exe.run_until_idle()
        assert dev.expiries == []
        clock.t = 1000
        exe.run_until_idle()
        assert dev.expiries == [(7, 1000)]

    def test_fires_once(self, clocked):
        clock, exe, dev = clocked
        dev.start_timer(10)
        clock.t = 5000
        exe.run_until_idle()
        exe.run_until_idle()
        assert len(dev.expiries) == 1

    def test_multiple_timers_fire_in_deadline_order(self, clocked):
        clock, exe, dev = clocked
        dev.start_timer(300, context=3)
        dev.start_timer(100, context=1)
        dev.start_timer(200, context=2)
        clock.t = 1000
        exe.run_until_idle()
        assert [c for c, _ in dev.expiries] == [1, 2, 3]

    def test_cancel_prevents_expiry(self, clocked):
        clock, exe, dev = clocked
        timer_id = dev.start_timer(100, context=1)
        assert dev.cancel_timer(timer_id) is True
        assert dev.cancel_timer(timer_id) is False  # already gone
        clock.t = 1000
        exe.run_until_idle()
        assert dev.expiries == []

    def test_negative_delay_rejected(self, clocked):
        _, _, dev = clocked
        with pytest.raises(I2OError):
            dev.start_timer(-1)

    def test_next_deadline(self, clocked):
        clock, exe, dev = clocked
        assert exe.timers.next_deadline_ns() is None
        dev.start_timer(500)
        t2 = dev.start_timer(100)
        assert exe.timers.next_deadline_ns() == 100
        dev.cancel_timer(t2)
        assert exe.timers.next_deadline_ns() == 500


class TestPeriodic:
    def test_periodic_rearms(self, clocked):
        clock, exe, dev = clocked
        exe.timers.start(owner=dev.tid, delay_ns=100, period_ns=100, context=9)
        for t in (100, 200, 300):
            clock.t = t
            exe.run_until_idle()
        assert dev.expiries == [(9, 100), (9, 200), (9, 300)]

    def test_periodic_cancel_stops(self, clocked):
        clock, exe, dev = clocked
        timer_id = exe.timers.start(owner=dev.tid, delay_ns=100, period_ns=100)
        clock.t = 100
        exe.run_until_idle()
        exe.timers.cancel(timer_id)
        clock.t = 1000
        exe.run_until_idle()
        assert len(dev.expiries) == 1

    def test_bad_period_rejected(self, clocked):
        _, exe, dev = clocked
        with pytest.raises(I2OError):
            exe.timers.start(owner=dev.tid, delay_ns=1, period_ns=0)


class TestReplug:
    """Uninstall carries a device's timers out, install re-arms them
    under the same ids with the delay each had left."""

    def _replug(self, exe, dev, into=None):
        tid = dev.tid
        exe.uninstall(tid)
        (into or exe).install(dev, tid=None if into else tid)

    def test_same_ids_with_the_delay_left(self, clocked):
        clock, exe, dev = clocked
        first, second = dev.start_timer(300, context=3), dev.start_timer(100)
        clock.t = 50
        exe.uninstall(dev.tid)
        assert len(exe.timers) == 0
        assert sorted(dev.carried_timers) == [(first, 250, 3, None),
                                              (second, 50, 0, None)]
        clock.t = 1_000  # unplugged a while: the delay left counts from install
        exe.install(dev)
        assert dev.cancel_timer(second)
        clock.t = 1_249
        exe.run_until_idle()
        assert dev.expiries == []
        clock.t = 1_250
        exe.run_until_idle()
        assert dev.expiries == [(3, 1_250)]

    def test_a_fired_expiry_still_queued_is_carried(self, clocked):
        clock, exe, dev = clocked
        timer_id = dev.start_timer(10, context=5)
        clock.t = 10
        assert exe.timers.poll() == 1
        drain_queues(exe)  # fired: its frame waits in the scheduler
        self._replug(exe, dev)
        exe.run_until_idle()
        assert dev.expiries == [(5, 10)]
        assert len(exe.timers) == 0
        exe.pool.check_conservation()
        assert timer_id not in exe.timers._live

    def test_a_periodic_expiry_coalesces_with_its_next(self, clocked):
        clock, exe, dev = clocked
        exe.timers.start(owner=dev.tid, delay_ns=100, period_ns=100, context=9)
        clock.t = 100
        exe.timers.poll()
        drain_queues(exe)
        self._replug(exe, dev)
        exe.run_until_idle()
        assert dev.expiries == []
        clock.t = 200
        exe.run_until_idle()
        assert dev.expiries == [(9, 200)]

    def test_ids_hold_on_another_executive(self, clocked):
        clock, exe, dev = clocked
        timer_id = dev.start_timer(100, context=1)
        other = Executive(node=1, clock=clock)
        resident = other.install(TimerUser("resident"))
        theirs = other.timers.start(owner=resident, delay_ns=100, context=2)
        self._replug(exe, dev, into=other)
        assert timer_id != theirs  # one id space per process
        clock.t = 100
        other.run_until_idle()
        assert dev.expiries == [(1, 100)]
        assert other.device(resident).expiries == [(2, 100)]


class TestTimerPriority:
    def test_timer_frames_outrank_data(self, clocked):
        """Timer expirations use priority 1: queued data at default
        priority 3 must not delay them."""
        clock, exe, dev = clocked
        order = []
        dev.bind(0x01, lambda f: order.append("data"))
        original = dev.on_timer
        dev.on_timer = lambda ctx, f: order.append("timer")  # type: ignore
        dev.start_timer(10)
        clock.t = 10
        # enqueue data BEFORE polling timers would run
        frame = exe.frame_alloc(0, target=dev.tid, initiator=dev.tid,
                                xfunction=0x01)
        exe.post_inbound(frame)
        exe.run_until_idle()
        assert order[0] == "timer"
        dev.on_timer = original  # restore


class TestSimPlaneTimers:
    def test_simnode_sleeps_until_timer_deadline(self):
        sim = Simulator()
        exe = Executive(node=0)
        dev = TimerUser()
        exe.install(dev)
        node = SimNode(sim, exe, cost_model=CostModel({}))
        dev.start_timer(5_000, context=1)
        sim.run(until=100_000)
        assert dev.expiries == [(1, 5_000)]
