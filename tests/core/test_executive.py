"""The executive: routing, dispatching, proxies, its own device role."""

from __future__ import annotations

import faulthandler
import gc
import os
import random
import sys
import threading
import time

import pytest

from repro.core.device import Listener, RETAIN, decode_params
from repro.core.executive import Executive
from repro.core.routes import Route, RouteTable
from repro.core.states import DeviceState
from repro.i2o.errors import AddressingError, I2OError
from repro.i2o.frame import Frame
from repro.i2o.function_codes import (
    EXEC_LCT_NOTIFY,
    EXEC_STATUS_GET,
    EXEC_SYS_ENABLE,
    EXEC_SYS_QUIESCE,
)
from repro.i2o.tid import EXECUTIVE_TID, MAX_NODE, TID_BROADCAST, TidAllocator
from repro.transports.agent import PeerTransportAgent
from repro.transports.base import PeerTransport

from tests.conftest import (
    all_parked,
    assert_no_leaks,
    drain_queues,
    make_loopback_cluster,
    pump,
    record_loop,
    wait_for,
)

REMOTE_TID = 20


class Seen:
    """Snapshot of a delivered frame: the block is recycled (and, under
    the sanitizer, poisoned) after dispatch, so handlers must copy what
    they want to keep rather than retain the Frame itself."""

    def __init__(self, frame: Frame) -> None:
        self.payload = bytes(frame.payload)
        self.is_failure = frame.is_failure


class Sink(Listener):
    def __init__(self, name: str = "sink") -> None:
        super().__init__(name)
        self.got: list[Seen] = []
        self.replies: list[Seen] = []

    def on_plugin(self) -> None:
        self.bind(0x01, self._on_msg)

    def _on_msg(self, frame: Frame) -> None:
        if frame.is_reply:
            self.replies.append(Seen(frame))
        else:
            self.got.append(Seen(frame))


class TestInstallation:
    def test_executive_occupies_tid_zero(self):
        exe = Executive(node=3)
        assert EXECUTIVE_TID in exe.devices()
        assert exe.device(EXECUTIVE_TID).device_class == "executive"

    def test_install_allocates_dynamic_tids(self):
        exe = Executive()
        t1 = exe.install(Sink("a"))
        t2 = exe.install(Sink("b"))
        assert t1 != t2 and t1 >= 16 and t2 >= 16

    def test_find_device_by_name(self):
        exe = Executive()
        dev = Sink("needle")
        exe.install(dev)
        assert exe.find_device("needle") is dev
        with pytest.raises(AddressingError):
            exe.find_device("missing")

    def test_uninstall_releases_tid_and_drops_frames(self):
        exe = Executive()
        a, b = Sink("a"), Sink("b")
        ta, tb = exe.install(a), exe.install(b)
        a.send(tb, b"queued", xfunction=0x01)
        drain_queues(exe)  # frame now queued for b
        exe.uninstall(tb)
        exe.run_until_idle()
        assert b.got == []
        assert b.executive is None
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0

    def test_device_lookup_unknown_tid(self):
        with pytest.raises(AddressingError):
            Executive().device(999)


class TestLocalRouting:
    def test_local_send_and_reply(self):
        exe = Executive()
        a, b = Sink("a"), Sink("b")
        exe.install(a)
        tb = exe.install(b)
        b.bind(0x01, lambda f: b.reply(f, b"pong") if not f.is_reply else None)
        a.send(tb, b"ping", xfunction=0x01)
        exe.run_until_idle()
        assert [bytes(f.payload) for f in a.replies] == [b"pong"]

    def test_unroutable_target_failure_reply(self):
        exe = Executive()
        a = Sink("a")
        exe.install(a)
        a.send(0x500, b"void", xfunction=0x01)
        exe.run_until_idle()
        assert exe.dropped == 1
        assert len(a.replies) == 1 and a.replies[0].is_failure

    def test_dead_letter_with_exhausted_pool_does_not_leak(self):
        """With a one-block pool, the dead-letter path must release the
        dropped frame *before* allocating the failure reply — the old
        order leaked the original when the reply alloc hit an empty
        pool."""
        from repro.mem.pool import BufferPool, OriginalAllocator

        pool = BufferPool(OriginalAllocator(block_size=512, block_count=1))
        exe = Executive(pool=pool)
        a = Sink("a")
        exe.install(a)
        a.send(0x500, b"void", xfunction=0x01)
        exe.run_until_idle()
        assert exe.dropped == 1
        assert len(a.replies) == 1 and a.replies[0].is_failure
        assert pool.in_flight == 0
        pool.check_conservation()

    def test_broadcast_reaches_all_but_initiator(self):
        exe = Executive()
        devices = [Sink(f"s{i}") for i in range(3)]
        for d in devices:
            exe.install(d)
        devices[0].send(TID_BROADCAST, b"all", xfunction=0x01)
        exe.run_until_idle()
        assert devices[0].got == []
        assert [len(d.got) for d in devices[1:]] == [1, 1]

    def test_handler_exception_does_not_kill_executive(self):
        exe = Executive()
        a, b = Sink("a"), Sink("b")
        exe.install(a)
        tb = exe.install(b)

        def boom(frame):
            if not frame.is_reply:
                raise ValueError("application bug")

        b.bind(0x01, boom)
        a.send(tb, b"x", xfunction=0x01)
        exe.run_until_idle()
        assert exe.handler_errors == 1
        assert len(a.replies) == 1 and a.replies[0].is_failure
        exe.pool.check_conservation()

    def test_retain_transfers_frame_ownership(self):
        exe = Executive()
        a, b = Sink("a"), Sink("b")
        exe.install(a)
        tb = exe.install(b)
        kept = []

        def keeper(frame):
            if frame.is_reply:
                return None
            kept.append(frame)
            return RETAIN

        b.bind(0x01, keeper)
        a.send(tb, b"keep me", xfunction=0x01)
        exe.run_until_idle()
        assert exe.pool.in_flight == 1  # the retained frame
        assert bytes(kept[0].payload) == b"keep me"
        exe.frame_free(kept[0])
        exe.pool.check_conservation()

    def test_run_until_idle_detects_message_loops(self):
        exe = Executive()
        a, b = Sink("a"), Sink("b")
        ta, tb = exe.install(a), exe.install(b)
        a.bind(0x02, lambda f: a.send(tb, b"", xfunction=0x02))
        b.bind(0x02, lambda f: b.send(ta, b"", xfunction=0x02))
        a.send(tb, b"", xfunction=0x02)
        with pytest.raises(I2OError, match="exceeded"):
            exe.run_until_idle(max_steps=200)


class _Client(Listener):
    """Records each delivery: payload, failure flag, transaction
    context, and whether the frame still owned a block when it ran."""

    def __init__(self) -> None:
        super().__init__("client")
        self.got: list[tuple[bytes, bool, int, bool]] = []

    def on_plugin(self) -> None:
        self.bind(0x01, self._on_msg)

    def _on_msg(self, frame: Frame) -> None:
        self.got.append((bytes(frame.payload), frame.is_failure,
                         frame.transaction_context, frame.block is not None))


class _FreesThenSends(Listener):
    """Frees the frame it runs on, then sends its initiator a message
    — which the pool may well build in the block just freed — and
    returns ``None`` (or raises)."""

    def __init__(self, raises: bool) -> None:
        super().__init__("freer")
        self.raises = raises

    def on_plugin(self) -> None:
        self.bind(0x01, self._on_msg)

    def _on_msg(self, frame: Frame) -> None:
        client = frame.initiator
        self.executive.frame_free(frame)
        self.send(client, b"answer" * 4, xfunction=0x01)
        if self.raises:
            raise ValueError("after the send")


class TestStaleHandle:
    """Frames recycle with their blocks, so a handler's frame object may
    be re-headed by the next loan.  The dispatch loop must then free
    only the loan it dispatched, and a failure reply must read the
    request it dispatched (the sanitizer's poison shows any slip)."""

    def _run(self, raises: bool) -> tuple[Executive, _Client]:
        from repro.analysis.sanitize import SanitizingTableAllocator
        from repro.mem.pool import BufferPool

        exe = Executive(pool=BufferPool(SanitizingTableAllocator()))
        client = _Client()
        exe.install(client)
        freer = exe.install(_FreesThenSends(raises))
        client.send(freer, b"ask", xfunction=0x01, transaction_context=7)
        exe.run_until_idle(max_steps=100)
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0
        return exe, client

    def test_the_reply_arrives_intact(self):
        exe, client = self._run(raises=False)
        assert client.got == [(b"answer" * 4, False, 0, True)]
        assert exe.pool.stats.allocs == exe.pool.stats.frees == 2

    def test_a_raising_handler_fails_the_original_initiator(self):
        exe, client = self._run(raises=True)
        assert client.got == [
            (b"answer" * 4, False, 0, True),
            (b"", True, 7, True),  # the request's context, echoed
        ]
        assert exe.handler_errors == 1
        assert exe.pool.stats.allocs == exe.pool.stats.frees == 3


class TestProxies:
    def test_create_proxy_idempotent(self):
        exe = Executive(node=0)
        p1 = exe.routes.create_proxy(1, REMOTE_TID)
        p2 = exe.routes.create_proxy(1, REMOTE_TID)
        assert p1 == p2
        assert exe.routes.route_for(p1) == Route(node=1, remote_tid=REMOTE_TID)

    def test_proxy_for_local_is_identity(self):
        exe = Executive(node=0)
        tid = exe.install(Sink())
        assert exe.routes.create_proxy(0, tid) == tid

    def test_distinct_remotes_distinct_proxies(self):
        exe = Executive(node=0)
        assert exe.routes.create_proxy(1, 20) != exe.routes.create_proxy(2, 20)
        assert exe.routes.create_proxy(1, 20) != exe.routes.create_proxy(1, 21)

    def test_racing_rx_threads_get_one_proxy_per_key(self):
        """The hit path reads ``_proxies`` without the lock; the insert
        re-checks under it.  Eight threads ask for the same three keys
        and for one key each of their own: one TiD per key, and the
        allocator has handed out exactly those and no more."""
        exe = Executive(node=0)
        live_before = exe.tids.live
        n_threads, shared = 8, [(1, 20, "a"), (1, 20, "b"), (2, 21, None)]
        barrier = threading.Barrier(n_threads)
        got: list[dict] = [{} for _ in range(n_threads)]

        def rx(i: int) -> None:
            barrier.wait(timeout=5)
            for _ in range(200):
                for key in [*shared, (3, 100 + i, None)]:
                    got[i].setdefault(key, set()).add(exe.routes.create_proxy(*key))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=rx, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        by_key: dict = {}
        for seen in got:
            for key, proxies in seen.items():
                by_key.setdefault(key, set()).update(proxies)
        assert len(by_key) == len(shared) + n_threads
        allocated = set()
        for key, proxies in by_key.items():
            (proxy,) = proxies
            assert exe.routes.route_for(proxy) == Route(*key)
            allocated.add(proxy)
        assert len(allocated) == len(by_key)
        assert exe.tids.live - live_before == allocated

    def test_second_rebind_keeps_other_proxies_idempotent(self):
        """A rebind drops the old key's entry only when it names this
        proxy: rebinding ``a`` onto ``b``'s key and then away again
        must leave ``b`` the answer for its own key."""
        routes = Executive(node=0).routes
        a = routes.create_proxy(2, 5)
        b = routes.create_proxy(1, 7)
        routes.rebind_route(a, 1, 7)
        routes.rebind_route(a, 3, 9)
        assert routes.create_proxy(1, 7) == b
        assert routes.routes_to(1) == [b]

    @pytest.mark.parametrize("node", [-1, MAX_NODE + 1, 5000, 10**12, True, "1"])
    def test_node_ids_out_of_range_are_refused(self, node):
        """No TiD is spent and no route stored for a node id the wire
        cannot carry, on create or on rebind."""
        exe = Executive(node=0)
        proxy = exe.routes.create_proxy(2, 5)
        live = exe.tids.live
        with pytest.raises(AddressingError, match="node id"):
            exe.routes.create_proxy(node, 5)
        with pytest.raises(AddressingError, match="node id"):
            exe.routes.rebind_route(proxy, node, 5)
        assert exe.tids.live == live
        assert exe.routes.by_proxy == {proxy: Route(2, 5)}

    def test_routes_to_holds_off_a_racing_insert(self):
        """``routes_to`` lists a snapshot taken under the table's lock:
        a receive thread that creates a proxy mid-listing waits for it
        instead of breaking the iteration."""
        routes = RouteTable(0, TidAllocator())
        first = routes.create_proxy(1, 20)
        routes.create_proxy(2, 21)
        inserter = threading.Thread(target=routes.create_proxy, args=(1, 99))

        class InsertMidway(dict):
            def items(self):
                for n, item in enumerate(super().items()):
                    if n == 0 and inserter.ident is None:
                        inserter.start()
                        inserter.join(timeout=0.2)
                    yield item

        routes.by_proxy = InsertMidway(routes.by_proxy)
        listed = routes.routes_to(1)
        inserter.join(timeout=5)
        assert not inserter.is_alive()
        assert listed == [first]
        assert len(routes.routes_to(1)) == 2

    def test_proxy_with_no_pta_dead_letters(self):
        exe = Executive(node=0)
        a = Sink()
        exe.install(a)
        proxy = exe.routes.create_proxy(1, 20)
        a.send(proxy, b"x", xfunction=0x01)
        exe.run_until_idle()
        assert exe.dropped == 1


class TestExecutiveDevice:
    """The executive's own message set (it is itself an I2O device)."""

    def _ask(self, cluster, function):
        asker = Sink("asker")
        cluster[0].install(asker)
        answers = []
        # Snapshot the payload inside the handler: the frame's block is
        # recycled (and, under the sanitizer, poisoned) after dispatch.
        asker.table.bind(
            function,
            lambda f: answers.append(bytes(f.payload)) if f.is_reply else None,
        )
        proxy = cluster[0].routes.create_proxy(1, EXECUTIVE_TID)
        asker.send(proxy, function=function)
        pump(cluster)
        return answers

    def test_status_get_over_the_wire(self):
        cluster = make_loopback_cluster(2)
        answers = self._ask(cluster, EXEC_STATUS_GET)
        status = decode_params(answers[0])
        assert status["node"] == "1"
        assert status["state"] == "initialised"
        assert_no_leaks(cluster)

    def test_lct_notify_lists_devices(self):
        cluster = make_loopback_cluster(2)
        tid = cluster[1].install(Sink("remote-sink"))
        answers = self._ask(cluster, EXEC_LCT_NOTIFY)
        table = decode_params(answers[0])
        assert table[str(tid)] == "private"
        assert table["0"] == "executive"

    def test_sys_enable_drives_all_devices(self):
        cluster = make_loopback_cluster(2)
        dev = Sink("target")
        cluster[1].install(dev)
        self._ask(cluster, EXEC_SYS_ENABLE)
        assert dev.state is DeviceState.ENABLED
        assert cluster[1].state is DeviceState.ENABLED

    def test_sys_quiesce_after_enable(self):
        cluster = make_loopback_cluster(2)
        dev = Sink("target")
        cluster[1].install(dev)
        self._ask(cluster, EXEC_SYS_ENABLE)
        self._ask(cluster, EXEC_SYS_QUIESCE)
        assert dev.state is DeviceState.QUIESCED


class TestThreadMode:
    def test_start_stop(self):
        exe = Executive()
        a, b = Sink("a"), Sink("b")
        exe.install(a)
        tb = exe.install(b)
        b.bind(0x01, lambda f: b.reply(f) if not f.is_reply else None)
        exe.start()
        try:
            a.send(tb, b"threaded", xfunction=0x01)
            import time

            deadline = time.monotonic() + 5
            while not a.replies and time.monotonic() < deadline:
                time.sleep(0.001)
            assert a.replies, "no reply within 5 s in thread mode"
        finally:
            exe.stop()

    def test_double_start_rejected(self):
        exe = Executive()
        exe.start()
        try:
            with pytest.raises(I2OError):
                exe.start()
        finally:
            exe.stop()

    def test_stop_without_start_is_noop(self):
        Executive().stop()

    def test_only_a_parking_loop_holds_fds(self):
        """A stepped executive that watches no fd opens none; a started
        one opens its epoll and its bell, and ``stop()`` closes both."""
        gc.collect()  # earlier tests' garbage closes its fds now
        fds = len(os.listdir("/proc/self/fd"))
        cluster = make_loopback_cluster(2)
        a, b = Sink("a"), Sink("b")
        cluster[0].install(a)
        a.send(cluster[0].routes.create_proxy(1, cluster[1].install(b)), b"x",
               xfunction=0x01)
        pump(cluster)
        assert len(b.got) == 1
        assert len(os.listdir("/proc/self/fd")) == fds
        cluster[1].start()
        try:
            assert all_parked([cluster[1]])
            assert len(os.listdir("/proc/self/fd")) == fds + 2
        finally:
            cluster[1].stop()
        assert len(os.listdir("/proc/self/fd")) == fds
        assert_no_leaks(cluster)


class _Alarm(Listener):
    """Records when each of its timers fired (monotonic ns, by context)."""

    def __init__(self) -> None:
        super().__init__("alarm")
        self.fired_at: dict[int, int] = {}

    def on_timer(self, context: int, frame: Frame) -> None:
        self.fired_at[context] = time.monotonic_ns()


class TestParkedLoop:
    """The idle loop of control sleeps on the doorbell, not on a tick.

    Every wait here is bounded and every failure is an assertion.
    """

    def test_idle_with_a_task_mode_pt_takes_no_steps_and_no_timer(self):
        exe = Executive()
        PeerTransportAgent.attach(exe).register(
            PeerTransport("task-pt", mode="task"), default=True)
        steps, parks = record_loop(exe)
        exe.start()
        try:
            assert all_parked([exe])
            before = len(steps)
            time.sleep(0.2)
            assert len(steps) - before == 0  # ~165 with the 1 ms tick
            assert len(steps) <= 3
            assert parks and set(parks) == {None}
        finally:
            exe.stop()

    def test_a_post_wakes_the_untimed_park(self):
        exe = Executive()
        sink = Sink()
        tid = exe.install(sink)
        exe.start()
        try:
            assert all_parked([exe])
            sink.send(tid, b"wake", xfunction=0x01)
            assert wait_for(lambda: sink.got, timeout=1.0)
        finally:
            exe.stop()

    def test_an_armed_timer_bounds_the_park_and_fires_on_time(self):
        exe = Executive()
        alarm = _Alarm()
        exe.install(alarm)
        steps, parks = record_loop(exe)
        armed = time.monotonic_ns()
        alarm.start_timer(50_000_000, context=1)
        exe.start()
        try:
            assert wait_for(lambda: 1 in alarm.fired_at, timeout=1.0)
            late_ns = alarm.fired_at[1] - (armed + 50_000_000)
            assert -1_000_000 <= late_ns <= 100_000_000
            timed = [t for t in parks if t is not None]
            assert timed and max(timed) <= 0.050
            assert len(steps) <= 10  # slept to the deadline, did not tick
            assert all_parked([exe]) and parks[-1] is None  # disarmed: untimed
        finally:
            exe.stop()

    def test_a_polling_pts_staging_wakes_the_untimed_park(self):
        cluster = make_loopback_cluster(2)
        sender, receiver = cluster[0], cluster[1]
        sink, caller = Sink(), Sink("caller")
        proxy = sender.routes.create_proxy(1, receiver.install(sink))
        sender.install(caller)
        steps, parks = record_loop(receiver)
        receiver.start()
        try:
            assert all_parked([receiver])
            idle_steps = len(steps)
            caller.send(proxy, b"staged", xfunction=0x01)
            sender.step()  # transmit: stages at node 1, nothing posted
            assert wait_for(lambda: sink.got, timeout=1.0)
            assert all_parked([receiver])
            assert set(parks) == {None}  # never a tick, before or after
            assert len(steps) - idle_steps <= 3
        finally:
            receiver.stop()
        pump(cluster)
        assert_no_leaks(cluster)

    def test_timers_armed_from_another_thread_ring_the_parked_loop(self):
        exe = Executive()
        alarm = _Alarm()
        exe.install(alarm)
        exe.start()
        rng = random.Random(24)
        deadlines: dict[int, int] = {}
        try:
            assert all_parked([exe])
            for context in range(2_000):
                delay_ns = rng.randrange(0, 30_000_000)
                deadlines[context] = time.monotonic_ns() + delay_ns
                alarm.start_timer(delay_ns, context=context)
                if context % 100 == 0:
                    time.sleep(0.005)  # let the loop park again in between
            assert wait_for(lambda: len(alarm.fired_at) == len(deadlines))
        finally:
            exe.stop()
        assert len(alarm.fired_at) == 2_000, "an expiry was never dispatched"
        late = [alarm.fired_at[c] - deadlines[c] for c in deadlines]
        assert min(late) >= -1_000_000  # never early (1 ms clock slack)
        assert max(late) <= 100_000_000

    @pytest.mark.parametrize("how", ["stop", "request_halt", "hard_stop"])
    def test_every_way_out_wakes_the_untimed_park(self, how):
        exe = Executive()
        exe.start()
        thread = exe._thread
        try:
            assert all_parked([exe])
            started = time.monotonic()
            getattr(exe, how)()
            thread.join(timeout=5.0)
            if thread.is_alive():
                faulthandler.dump_traceback()  # where the loop still sleeps
            assert not thread.is_alive(), f"{how}() did not wake the loop"
            assert time.monotonic() - started < 0.5
        finally:
            exe.stop()
