"""Listener: standard message sets, lifecycle, helpers."""

from __future__ import annotations

import pytest

from repro.core.device import (
    FunctionalListener,
    Listener,
    decode_params,
    encode_params,
)
from repro.core.executive import Executive
from repro.core.states import DeviceState, StateError
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.function_codes import (
    EXEC_DDM_ENABLE,
    EXEC_DDM_QUIESCE,
    EXEC_DDM_RESET,
    UTIL_ABORT,
    UTIL_CLAIM,
    UTIL_EVENT_ACKNOWLEDGE,
    UTIL_EVENT_REGISTER,
    UTIL_NOP,
    UTIL_PARAMS_GET,
    UTIL_PARAMS_SET,
)


class Recorder(Listener):
    """Collects every frame that reaches its private handler."""

    def __init__(self, name: str = "rec") -> None:
        super().__init__(name)
        self.frames: list[tuple[int, bytes, bool, bool]] = []

    def on_plugin(self) -> None:
        self.bind(0x0001, self._on_any)

    def _on_any(self, frame: Frame) -> None:
        self.frames.append(
            (frame.initiator, bytes(frame.payload), frame.is_reply,
             frame.is_failure)
        )


@pytest.fixture
def exe():
    return Executive(node=0)


def drive(exe: Executive) -> None:
    exe.run_until_idle()


class TestParamsCodec:
    def test_round_trip(self):
        rows = [
            {"a": "1", "b": "two", "empty": ""},
            # Line breaks other than "\n" are ordinary value characters.
            {"k": "x\ry"},
            {"k": "x\x0cy"},
            {"k": "x\x85y"},
            {"k": "x\u2028y"},
        ]
        for params in rows:
            assert decode_params(encode_params(params)) == params, params

    def test_empty(self):
        assert decode_params(encode_params({})) == {}

    def test_illegal_key_rejected(self):
        with pytest.raises(I2OError):
            encode_params({"a=b": "x"})
        with pytest.raises(I2OError):
            encode_params({"a": "line\nbreak"})

    def test_malformed_line_rejected(self):
        with pytest.raises(I2OError):
            decode_params(b"no-equals-sign")


class TestLifecycle:
    def test_plugin_assigns_tid_and_executive(self, exe):
        dev = Recorder()
        tid = exe.install(dev)
        assert dev.tid == tid
        assert dev.executive is exe
        assert dev.state is DeviceState.INITIALISED

    def test_double_install_rejected(self, exe):
        dev = Recorder()
        exe.install(dev)
        with pytest.raises(I2OError):
            exe.install(dev)
        with pytest.raises(I2OError):
            Executive(node=1).install(dev)

    def test_unplugged_device_cannot_send(self):
        dev = Recorder()
        with pytest.raises(I2OError):
            dev.send(5, b"x")

    def test_set_state_enforces_machine(self, exe):
        dev = Recorder()
        exe.install(dev)
        dev.set_state(DeviceState.ENABLED)
        with pytest.raises(StateError):
            dev.set_state(DeviceState.CONFIGURED)


class TestStandardHandlers:
    def _send(self, exe, sender, target_tid, function, payload=b""):
        sender.send(target_tid, payload, function=function)
        drive(exe)

    def test_nop_gets_empty_reply(self, exe):
        a, b = Recorder("a"), Recorder("b")
        ta, tb = exe.install(a), exe.install(b)
        replies = []
        a.table.bind(UTIL_NOP, lambda f: replies.append(f.is_reply))
        self._send(exe, a, tb, UTIL_NOP)
        assert replies == [True]

    def test_params_get_returns_all(self, exe):
        a, b = Recorder("a"), Recorder("b")
        exe.install(a)
        tb = exe.install(b)
        b.parameters.update({"rate": "100", "mode": "fast"})
        got = []
        a.table.bind(UTIL_PARAMS_GET,
                     lambda f: got.append(decode_params(f.payload)))
        self._send(exe, a, tb, UTIL_PARAMS_GET)
        assert got == [{"rate": "100", "mode": "fast"}]

    def test_params_get_subset(self, exe):
        a, b = Recorder("a"), Recorder("b")
        exe.install(a)
        tb = exe.install(b)
        b.parameters.update({"rate": "100", "mode": "fast"})
        got = []
        a.table.bind(UTIL_PARAMS_GET,
                     lambda f: got.append(decode_params(f.payload)))
        self._send(exe, a, tb, UTIL_PARAMS_GET, encode_params({"rate": ""}))
        assert got == [{"rate": "100"}]

    def test_params_set_updates_and_replies(self, exe):
        a, b = Recorder("a"), Recorder("b")
        exe.install(a)
        tb = exe.install(b)
        ok = []
        a.table.bind(UTIL_PARAMS_SET, lambda f: ok.append(not f.is_failure))
        self._send(exe, a, tb, UTIL_PARAMS_SET, encode_params({"k": "v"}))
        assert b.parameters["k"] == "v"
        assert ok == [True]

    def test_params_set_refusal_via_on_parameters(self, exe):
        class Picky(Recorder):
            def on_parameters(self, updates):
                if "forbidden" in updates:
                    raise I2OError("nope")

        a, b = Recorder("a"), Picky("b")
        exe.install(a)
        tb = exe.install(b)
        failures = []
        a.table.bind(UTIL_PARAMS_SET, lambda f: failures.append(f.is_failure))
        self._send(exe, a, tb, UTIL_PARAMS_SET,
                   encode_params({"forbidden": "1"}))
        assert failures == [True]
        assert "forbidden" not in b.parameters

    def test_export_counters_published_via_params_get(self, exe):
        class Counting(Recorder):
            def export_counters(self):
                return {"hits": 42}

        a, b = Recorder("a"), Counting("b")
        exe.install(a)
        tb = exe.install(b)
        got = []
        a.table.bind(UTIL_PARAMS_GET,
                     lambda f: got.append(decode_params(f.payload)))
        self._send(exe, a, tb, UTIL_PARAMS_GET)
        assert got[0]["hits"] == "42"

    def test_claim_exclusive(self, exe):
        a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
        exe.install(a)
        exe.install(c)
        tb = exe.install(b)
        results: dict[str, bool] = {}
        a.table.bind(UTIL_CLAIM, lambda f: results.update(a=f.is_failure))
        c.table.bind(UTIL_CLAIM, lambda f: results.update(c=f.is_failure))
        self._send(exe, a, tb, UTIL_CLAIM)
        self._send(exe, c, tb, UTIL_CLAIM)
        assert results == {"a": False, "c": True}  # second claimant refused

    def test_event_register_and_notify(self, exe):
        a, b = Recorder("a"), Recorder("b")
        exe.install(a)
        tb = exe.install(b)
        notifications = []
        a.table.bind(UTIL_EVENT_ACKNOWLEDGE,
                     lambda f: notifications.append(bytes(f.payload)))
        self._send(exe, a, tb, UTIL_EVENT_REGISTER)
        assert b.notify_event(b"something happened") == 1
        drive(exe)
        assert notifications == [b"something happened"]

    def test_ddm_enable_quiesce_reset_drive_hooks(self, exe):
        calls = []

        class Hooked(Recorder):
            def on_enable(self):
                calls.append("enable")

            def on_quiesce(self):
                calls.append("quiesce")

            def on_reset(self):
                calls.append("reset")

        a, b = Recorder("a"), Hooked("b")
        exe.install(a)
        tb = exe.install(b)
        self._send(exe, a, tb, EXEC_DDM_ENABLE)
        assert b.state is DeviceState.ENABLED
        self._send(exe, a, tb, EXEC_DDM_QUIESCE)
        assert b.state is DeviceState.QUIESCED
        self._send(exe, a, tb, EXEC_DDM_RESET)
        assert b.state is DeviceState.INITIALISED
        assert calls == ["enable", "quiesce", "reset"]

    def test_abort_resets(self, exe):
        calls = []

        class Hooked(Recorder):
            def on_reset(self):
                calls.append("reset")

        a, b = Recorder("a"), Hooked("b")
        exe.install(a)
        tb = exe.install(b)
        self._send(exe, a, tb, UTIL_ABORT)
        assert calls == ["reset"]

    def test_unhandled_message_gets_failure_reply(self, exe):
        """The fault-tolerant default of paper §3.2."""
        a, b = Recorder("a"), Recorder("b")
        exe.install(a)
        tb = exe.install(b)
        # xfunction 0x0077 is not bound on b (but a listens for the reply).
        replies = []
        a.bind(0x0077, lambda f: replies.append((f.is_reply, f.is_failure)))
        a.send(tb, b"", xfunction=0x0077)
        drive(exe)
        assert replies == [(True, True)]


class TestHelpers:
    def test_reply_echoes_contexts_and_discriminator(self, exe):
        a, b = Recorder("a"), Recorder("b")
        ta, tb = exe.install(a), exe.install(b)
        echoes = []

        def echo(frame):
            if not frame.is_reply:
                b.reply(frame, b"pong")
            return None

        b.bind(0x42, echo)
        a.bind(0x42, lambda f: echoes.append(
            (f.initiator_context, f.transaction_context, f.xfunction)
        ) if f.is_reply else None)
        a.send(tb, b"ping", xfunction=0x42, initiator_context=7,
               transaction_context=9)
        drive(exe)
        assert echoes == [(7, 9, 0x42)]

    @pytest.mark.parametrize("form", ["send", "send_into", "reply", "reply_into"])
    def test_failed_fill_frees_the_frame_and_posts_nothing(self, exe, form):
        """The one post path under all four senders: a payload that
        cannot be copied in, or a writer that raises, hands the loaned
        frame back — pool conserved, nothing queued."""
        dev = Recorder()
        tid = exe.install(dev)
        request = exe.frame_alloc(0, target=tid, initiator=dev.tid)

        def boom(view):
            raise ValueError("writer failed")

        with pytest.raises((ValueError, TypeError)):
            if form == "send":
                dev.send(tid, "str")  # not a bytes-like payload
            elif form == "send_into":
                dev.send_into(tid, 4, boom)
            elif form == "reply":
                dev.reply(request, "str")
            else:
                dev.reply_into(request, 4, boom)
        exe.frame_free(request)
        assert exe.pool.in_flight == 0
        assert len(exe.scheduler) == 0
        exe.pool.check_conservation()

    def test_functional_listener(self, exe):
        hits = []
        dev = FunctionalListener("fn", handlers={0x5: hits.append})
        other = Recorder()
        exe.install(other)
        tid = exe.install(dev)
        other.send(tid, b"x", xfunction=0x5)
        drive(exe)
        assert len(hits) == 1

    def test_alloc_frame_is_pool_backed(self, exe):
        dev = Recorder()
        exe.install(dev)
        frame = exe.frame_alloc(100, target=dev.tid, initiator=dev.tid)
        assert frame.block is not None
        assert frame.payload_size == 100
        exe.frame_free(frame)
