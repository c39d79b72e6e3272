"""The sampling profiler: stack attribution, lifecycle, off-mode."""

from __future__ import annotations

import threading

import pytest

from repro.core.device import FunctionalListener, Listener
from repro.core.executive import Executive
from repro.core.telemetry import TelemetryAgent, node_snapshot
from repro.dataflow.registry import _unregister, message_type
from repro.i2o.errors import I2OError
from repro.i2o.function_codes import function_name
from repro.i2o.tid import Tid
from repro.profile.sampler import SamplingProfiler, context_label


def run_echo_dispatch(exe: Executive) -> None:
    tid = exe.install(
        FunctionalListener(name="echo", handlers={0x1: lambda f: None})
    )
    sender = Listener("sender")
    exe.install(sender)
    sender.send(tid, b"ping", xfunction=0x1)
    exe.run_until_idle()


def sample_in_handler(
    exe: Executive, profiler: SamplingProfiler, depth: int = 0
) -> Tid:
    """Dispatch one message whose handler takes a real sample on this,
    the stepping thread, ``depth`` calls below the handler; returns the
    handler's TiD."""

    def nested(levels: int) -> None:
        if levels:
            nested(levels - 1)
        else:
            profiler.sample_once()

    tid = exe.install(FunctionalListener(
        name="spy", handlers={0x1: lambda f: nested(depth)},
    ))
    sender = Listener("sender")
    exe.install(sender)
    sender.send(tid, b"", xfunction=0x1)
    exe.run_until_idle()
    return tid


class TestStackAttribution:
    def test_handler_sample_reads_the_stack(self):
        exe = Executive(node=0)
        profiler = SamplingProfiler(hz=50.0)
        profiler.register(exe)
        profiler.watch_thread(0)
        tid = sample_in_handler(exe, profiler)
        # Mid-dispatch the sample took this dispatch's context triple...
        ((node, ctx, count),) = profiler.hot_contexts()
        assert (node, ctx[0], ctx[2], count) == (0, int(tid), 0x1, 1)
        # ...and between dispatches the stack holds none: idle.
        profiler.sample_once()
        assert (profiler.node_samples[0], profiler.node_busy[0]) == (2, 1)

    def test_two_executives_on_one_thread(self):
        # Busy for the executive whose dispatch is on the stack, idle
        # for the other one stepped from the same thread.
        exe_a, exe_b = Executive(node=0), Executive(node=1)
        profiler = SamplingProfiler(hz=50.0)
        for exe in (exe_a, exe_b):
            profiler.register(exe)
            profiler.watch_thread(exe.node)  # both stepped from here
        tid = sample_in_handler(exe_a, profiler)
        assert (profiler.node_samples[0], profiler.node_busy[0]) == (1, 1)
        assert (profiler.node_samples[1], profiler.node_busy[1]) == (1, 0)
        ((node, ctx, _),) = profiler.hot_contexts()
        assert (node, ctx[0]) == (0, int(tid))

    def test_attribution_does_not_depend_on_max_depth(self):
        exe = Executive(node=0)
        profiler = SamplingProfiler(hz=50.0, max_depth=3)
        profiler.register(exe)
        profiler.watch_thread(0)
        tid = sample_in_handler(exe, profiler, depth=5)
        ((node, ctx, stack),) = list(profiler.counts)
        # The recorded stack holds only the innermost three frames; the
        # dispatch loop lies deeper than that.
        assert len(stack) == 3
        assert not any("_dispatch_one" in name for name in stack)
        assert (node, ctx[0], ctx[2]) == (0, int(tid), 0x1)


class TestContextLabel:
    def test_idle(self):
        assert context_label(None) == "idle"

    def test_registered_message_type_name_wins(self):
        mtype = message_type("test.profile-label", 0x3F7)
        try:
            label = context_label((5, mtype.function, mtype.xfunction))
            assert label == "tid5:test.profile-label"
        finally:
            _unregister("test.profile-label")

    def test_unregistered_falls_back_to_function_name(self):
        label = context_label((2, 0xFF, 0xABC))
        assert label == f"tid2:{function_name(0xFF)}/xfn0x0abc"


class TestRegistration:
    def test_register_attaches_nothing_and_exports_gauges(self):
        exe = Executive(node=3)
        profiler = SamplingProfiler(hz=50.0)
        profiler.register(exe)
        assert exe.observers == ()
        agent = TelemetryAgent()
        exe.install(agent)
        snap = agent.local_snapshot()
        assert snap["prof_samples_total"] == "0"
        assert snap["prof_busy_samples_total"] == "0"

    def test_register_is_idempotent(self):
        exe = Executive(node=0)
        profiler = SamplingProfiler(hz=50.0)
        profiler.register(exe)
        profiler.register(exe)
        profiler.watch_thread(0)
        assert exe.observers == ()
        assert profiler.sample_once() == 1  # one node, sampled once

    def test_unregister_restores_off_mode(self):
        exe = Executive(node=0)
        profiler = SamplingProfiler(hz=50.0)
        profiler.register(exe)
        profiler.unregister(exe)
        assert exe.observers == ()

    def test_bad_rate_rejected(self):
        with pytest.raises(I2OError, match="sampling rate"):
            SamplingProfiler(hz=0)


class TestSampling:
    def _watched(self, hz=50.0, **kwargs):
        exe = Executive(node=0)
        profiler = SamplingProfiler(hz=hz, **kwargs)
        profiler.register(exe)
        profiler.watch_thread(0)  # defaults to this, the pumping thread
        return exe, profiler

    def test_idle_sample_attributed_to_idle(self):
        _exe, profiler = self._watched()
        assert profiler.sample_once() == 1
        assert profiler.node_samples[0] == 1
        assert profiler.node_busy[0] == 0
        assert any(
            line.startswith("node0;idle;") for line in profiler.collapsed()
        )

    def test_busy_sample_attributed_to_the_published_context(self):
        exe, profiler = self._watched()
        tid = sample_in_handler(exe, profiler)
        assert profiler.node_busy[0] == 1
        ((node, ctx, count),) = profiler.hot_contexts()
        function = ctx[1]
        assert (node, ctx, count) == (0, (int(tid), function, 0x1), 1)
        label = context_label((int(tid), function, 0x1))
        assert any(
            line.startswith(f"node0;{label};")
            for line in profiler.collapsed()
        )

    def test_collapsed_lines_end_with_the_sample_count(self):
        _exe, profiler = self._watched()
        profiler.sample_once()
        profiler.sample_once()
        total = sum(int(line.rsplit(" ", 1)[1])
                    for line in profiler.collapsed())
        assert total == 2

    def test_max_depth_caps_the_walk(self):
        _exe, profiler = self._watched(max_depth=3)
        profiler.sample_once()
        ((_, _, stack),) = list(profiler.counts)
        assert 0 < len(stack) <= 3

    def test_clear_keeps_the_watched_set(self):
        _exe, profiler = self._watched()
        profiler.sample_once()
        profiler.clear()
        assert profiler.node_samples[0] == 0
        assert profiler.ticks == 0
        assert profiler.sample_once() == 1  # still watching

    def test_unwatched_node_yields_no_samples(self):
        exe = Executive(node=0)
        profiler = SamplingProfiler(hz=50.0)
        profiler.register(exe)
        # No pinned ident and no loop thread running: nothing to walk.
        assert profiler.sample_once() == 0


class TestLifecycle:
    def test_start_stop_are_idempotent(self):
        profiler = SamplingProfiler(hz=487.0)
        profiler.start()
        thread = profiler._thread
        profiler.start()  # no-op
        assert profiler._thread is thread
        profiler.stop()
        profiler.stop()  # no-op
        assert not profiler.running

    def test_restart_spawns_a_fresh_thread(self):
        profiler = SamplingProfiler(hz=487.0)
        profiler.start()
        first = profiler._thread
        profiler.stop()
        profiler.start()
        assert profiler.running and profiler._thread is not first
        profiler.stop()

    def test_executive_restart_is_picked_up_live(self):
        # The sampled ident is resolved from Executive._thread at every
        # tick: stop/start of the node needs no profiler re-wiring.
        exe = Executive(node=0)
        profiler = SamplingProfiler(hz=50.0)
        profiler.register(exe)
        exe.start()
        try:
            assert profiler.sample_once() == 1
        finally:
            exe.stop()
        assert profiler.sample_once() == 0  # loop thread gone
        exe.start()
        try:
            assert profiler.sample_once() == 1  # new incarnation sampled
        finally:
            exe.stop()

    def test_sampler_thread_accumulates_while_running(self):
        exe = Executive(node=0)
        profiler = SamplingProfiler(hz=997.0)
        profiler.register(exe)
        profiler.watch_thread(0, ident=threading.get_ident())
        profiler.start()
        try:
            deadline = threading.Event()
            for _ in range(200):
                if profiler.node_samples[0] > 0:
                    break
                deadline.wait(0.01)
        finally:
            profiler.stop()
        assert profiler.node_samples[0] > 0
        assert profiler.ticks > 0


class TestOffMode:
    def test_no_profiler_means_no_slot_and_no_prof_metrics(self):
        exe = Executive(node=0)
        assert exe.observers == ()
        run_echo_dispatch(exe)  # hot path: one truthiness test, nothing else
        assert exe.observers == ()
        assert not any(
            key.startswith("prof_") for key in node_snapshot(exe)
        )

    def test_dispatch_works_after_unregister(self):
        exe = Executive(node=0)
        profiler = SamplingProfiler(hz=50.0)
        profiler.register(exe)
        profiler.unregister(exe)
        run_echo_dispatch(exe)
        assert exe.dispatched >= 1
