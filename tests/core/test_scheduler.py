"""The I2O dispatch scheduler: priorities and round-robin fairness."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import PriorityScheduler
from repro.i2o.errors import I2OError
from repro.i2o.frame import NUM_PRIORITIES, Frame

INITIATOR_TID = 1


def frame(target: int, priority: int = 3, tag: int = 0) -> Frame:
    return Frame.build(
        target=target, initiator=INITIATOR_TID, priority=priority,
        transaction_context=tag
    )


class TestBasics:
    def test_empty_pop_returns_none(self):
        sched = PriorityScheduler()
        assert sched.pop() is None
        assert sched.empty

    def test_fifo_within_one_device(self):
        sched = PriorityScheduler()
        for tag in range(5):
            sched.push(frame(7, tag=tag))
        tags = [sched.pop().transaction_context for _ in range(5)]
        assert tags == [0, 1, 2, 3, 4]

    def test_len_tracks_depth(self):
        sched = PriorityScheduler()
        for i in range(4):
            sched.push(frame(i))
        assert len(sched) == 4
        sched.pop()
        assert len(sched) == 3

    def test_counters(self):
        sched = PriorityScheduler()
        sched.push(frame(1))
        sched.pop()
        assert sched.pushed == 1 and sched.popped == 1

    def test_depth_of_priority(self):
        sched = PriorityScheduler()
        sched.push(frame(1, priority=0))
        sched.push(frame(2, priority=0))
        sched.push(frame(3, priority=5))
        assert sched.depth_of(0) == 2
        assert sched.depth_of(5) == 1
        assert sched.depth_of(6) == 0

    def test_depth_of_validates(self):
        with pytest.raises(I2OError):
            PriorityScheduler().depth_of(7)


class TestPriorities:
    def test_higher_priority_always_first(self):
        sched = PriorityScheduler()
        sched.push(frame(1, priority=6, tag=100))
        sched.push(frame(2, priority=0, tag=200))
        sched.push(frame(3, priority=3, tag=300))
        assert sched.pop().transaction_context == 200
        assert sched.pop().transaction_context == 300
        assert sched.pop().transaction_context == 100

    def test_all_seven_levels(self):
        sched = PriorityScheduler()
        for priority in reversed(range(NUM_PRIORITIES)):
            sched.push(frame(priority + 1, priority=priority))
        order = [sched.pop().priority for _ in range(NUM_PRIORITIES)]
        assert order == list(range(NUM_PRIORITIES))

    def test_late_high_priority_preempts_queued_low(self):
        sched = PriorityScheduler()
        sched.push(frame(1, priority=4, tag=1))
        sched.push(frame(1, priority=4, tag=2))
        sched.pop()
        sched.push(frame(2, priority=1, tag=3))
        assert sched.pop().transaction_context == 3


class TestRoundRobin:
    def test_devices_alternate(self):
        sched = PriorityScheduler()
        for tag in range(3):
            sched.push(frame(10, tag=tag))
            sched.push(frame(20, tag=tag + 100))
        order = [(sched.pop().target, sched.pop().target) for _ in range(3)]
        assert order == [(10, 20)] * 3

    def test_no_starvation_with_unbalanced_load(self):
        """A device with many frames cannot lock out one with few."""
        sched = PriorityScheduler()
        for tag in range(10):
            sched.push(frame(10, tag=tag))
        sched.push(frame(20, tag=999))
        first_four = [sched.pop().target for _ in range(4)]
        assert 20 in first_four[:2]  # served on the second turn at latest

    def test_pending_devices_order(self):
        sched = PriorityScheduler()
        sched.push(frame(5))
        sched.push(frame(5))
        sched.push(frame(9))
        assert sched.pending_devices(3) == [5, 9]
        sched.pop()
        assert sched.pending_devices(3) == [9, 5]  # 5 rotated to the back

    def test_drop_device_removes_everything(self):
        sched = PriorityScheduler()
        for priority in (0, 3, 6):
            sched.push(frame(8, priority=priority))
        sched.push(frame(9))
        dropped = sched.drop_device(8)
        assert len(dropped) == 3
        assert len(sched) == 1
        assert sched.pop().target == 9

    @given(st.lists(
        st.tuples(st.integers(0, 6), st.integers(1, 5)), min_size=1, max_size=100
    ))
    @settings(max_examples=60, deadline=None)
    def test_property_priority_order_and_fairness_bound(self, pushes):
        """Pop order respects priority, and within a priority no device
        is served twice while another has an older pending frame
        (round-robin fairness)."""
        sched = PriorityScheduler()
        for priority, target in pushes:
            sched.push(frame(target, priority=priority))
        popped = []
        while True:
            f = sched.pop()
            if f is None:
                break
            popped.append((f.priority, f.target))
        assert len(popped) == len(pushes)
        assert [p for p, _ in popped] == sorted(p for p, _ in popped)
        # Compare against an independent round-robin reference model:
        # per priority, per-device FIFO queues served one frame at a
        # time in a ring ordered by first enqueue.
        from collections import OrderedDict, deque

        expected: list[tuple[int, int]] = []
        for priority in range(7):
            ring: OrderedDict[int, deque[int]] = OrderedDict()
            for p, target in pushes:
                if p == priority:
                    ring.setdefault(target, deque()).append(target)
            while ring:
                target, queue = next(iter(ring.items()))
                queue.popleft()
                del ring[target]
                if queue:
                    ring[target] = queue
                expected.append((priority, target))
        assert popped == expected


class _OrderedDictScheduler:
    """The scheduler as it was before the kept-alive ring: one
    ``OrderedDict(tid -> deque)`` per level, whose order *is* the ring
    (a device is deleted when served and re-inserted if frames remain).
    The reference the ring implementation must match step for step."""

    def __init__(self) -> None:
        from collections import OrderedDict

        self.levels = [OrderedDict() for _ in range(NUM_PRIORITIES)]

    def push(self, f: Frame) -> None:
        self.levels[f.priority].setdefault(f.target, deque()).append(f)

    def pop(self) -> Frame | None:
        for level in self.levels:
            if level:
                tid, queue = next(iter(level.items()))
                f = queue.popleft()
                del level[tid]
                if queue:
                    level[tid] = queue
                return f
        return None

    def drop_device(self, tid: int) -> list[Frame]:
        dropped: list[Frame] = []
        for level in self.levels:
            dropped.extend(level.pop(tid, ()))
        return dropped

    def depth_of(self, priority: int) -> int:
        return sum(len(q) for q in self.levels[priority].values())

    def pending_devices(self, priority: int) -> list[int]:
        return list(self.levels[priority])


class TestKeptRing:
    """The per-level ring of active TiDs beside kept-alive FIFOs."""

    def test_drop_from_the_middle_of_the_ring_keeps_the_others_order(self):
        sched = PriorityScheduler()
        for target in (1, 2, 3, 4):
            sched.push(frame(target))
            sched.push(frame(target))
        sched.pop()  # 1 rotates to the back: ring is 2, 3, 4, 1
        assert [f.target for f in sched.drop_device(3)] == [3, 3]
        assert sched.pending_devices(3) == [2, 4, 1]
        order = [sched.pop().target for _ in range(len(sched))]
        assert order == [2, 4, 1, 2, 4]
        assert sched.pop() is None

    def test_a_drained_device_rejoins_at_the_back(self):
        sched = PriorityScheduler()
        sched.push(frame(7))
        sched.push(frame(8))
        sched.push(frame(8))
        assert sched.pop().target == 7  # 7 drains and leaves the ring
        assert sched.pending_devices(3) == [8]
        sched.push(frame(7))  # ... and comes back behind 8
        assert sched.pending_devices(3) == [8, 7]
        assert [sched.pop().target for _ in range(3)] == [8, 7, 8]

    @given(st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.integers(0, 6), st.integers(1, 5)),
            st.tuples(st.just("pop"), st.just(0), st.just(0)),
            st.tuples(st.just("drop"), st.just(0), st.integers(1, 5)),
        ),
        max_size=120,
    ))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_ordered_dict_scheduler(self, ops):
        sched, reference = PriorityScheduler(), _OrderedDictScheduler()
        for tag, (op, priority, target) in enumerate(ops):
            if op == "push":
                f = frame(target, priority=priority, tag=tag)
                sched.push(f)
                reference.push(f)
            elif op == "pop":
                assert sched.pop() is reference.pop()
            else:
                assert sched.drop_device(target) == reference.drop_device(target)
            for level in range(NUM_PRIORITIES):
                assert sched.pending_devices(level) == \
                    reference.pending_devices(level)
                assert sched.depth_of(level) == reference.depth_of(level)
        assert len(sched) == sum(
            reference.depth_of(level) for level in range(NUM_PRIORITIES))
