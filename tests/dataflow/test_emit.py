"""Typed emit: route resolution, delivery modes, zero-copy form."""

from __future__ import annotations

import pytest

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.dataflow.registry import _unregister, message_type
from repro.i2o.errors import I2OError

XF_UNI = 0x0E20
XF_FAN = 0x0E21
XF_KEYED = 0x0E22


@pytest.fixture
def types():
    uni = message_type("test.emit-uni", XF_UNI)
    fan = message_type("test.emit-fan", XF_FAN, mode="fanout")
    keyed = message_type("test.emit-keyed", XF_KEYED, mode="keyed")
    yield uni, fan, keyed
    for name in ("test.emit-uni", "test.emit-fan", "test.emit-keyed"):
        _unregister(name)


class Sink(Listener):
    device_class = "test_sink"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.got: list[bytes] = []

    def on_plugin(self) -> None:
        for xfunc in (XF_UNI, XF_FAN, XF_KEYED):
            self.bind(xfunc, self._take)

    def _take(self, frame) -> None:
        if not frame.is_reply:
            self.got.append(bytes(frame.payload))


class Source(Listener):
    device_class = "test_source"


@pytest.fixture
def exe():
    return Executive(node=0)


@pytest.fixture
def source(exe):
    src = Source("src")
    exe.install(src)
    return src


class TestEmit:
    def test_unrouted_emit_names_device_and_type(self, exe, types, source):
        uni, _, _ = types
        with pytest.raises(I2OError, match="'src'.*'test.emit-uni'"):
            source.emit(uni, b"x")

    def test_unicast_emit_reaches_the_single_target(self, exe, types, source):
        uni, _, _ = types
        sink = Sink("sink")
        exe.install(sink)
        source.connect_route(uni, {"sink": sink.tid})
        assert source.emit(uni, b"hello") == (1, 0, 0)
        exe.run_until_idle()
        assert sink.got == [b"hello"]

    def test_unicast_with_multiple_targets_needs_a_key(
        self, exe, types, source
    ):
        uni, _, _ = types
        a, b = Sink("a"), Sink("b")
        exe.install(a)
        exe.install(b)
        source.connect_route(uni, {"a": a.tid, "b": b.tid})
        with pytest.raises(I2OError, match="2 targets"):
            source.emit(uni, b"x")
        assert source.emit(uni, b"x", key="b") == (1, 0, 0)
        exe.run_until_idle()
        assert b.got == [b"x"] and a.got == []

    def test_fanout_emit_copies_to_every_target(self, exe, types, source):
        _, fan, _ = types
        sinks = [Sink(f"s{i}") for i in range(3)]
        for sink in sinks:
            exe.install(sink)
        source.connect_route(fan, {s.name: s.tid for s in sinks})
        assert source.emit(fan, b"all") == (3, 0, 0)
        exe.run_until_idle()
        assert all(s.got == [b"all"] for s in sinks)

    def test_keyed_emit_requires_a_known_key(self, exe, types, source):
        _, _, keyed = types
        sink = Sink("sink")
        exe.install(sink)
        source.connect_route(keyed, {7: sink.tid})
        with pytest.raises(I2OError, match="no consumer keyed 9"):
            source.emit(keyed, b"x", key=9)
        source.emit(keyed, b"x", key=7)
        exe.run_until_idle()
        assert sink.got == [b"x"]

    def test_reconnect_requires_replace(self, exe, types, source):
        uni, _, _ = types
        sink = Sink("sink")
        exe.install(sink)
        source.connect_route(uni, {"sink": sink.tid})
        with pytest.raises(I2OError, match="already"):
            source.connect_route(uni, {"sink": sink.tid})
        source.connect_route(uni, {"sink": sink.tid}, replace=True)

    def test_routes_survive_by_name_or_type(self, exe, types, source):
        uni, _, _ = types
        sink = Sink("sink")
        exe.install(sink)
        source.connect_route(uni, {"sink": sink.tid})
        assert source.routes_for("test.emit-uni").targets == {"sink": sink.tid}
        assert source.dataflow_targets(uni) == {"sink": sink.tid}
        assert source.dataflow_targets("test.emit-fan") == {}

    def test_drop_route_target_scopes_to_types(self, exe, types, source):
        uni, fan, _ = types
        sink = Sink("sink")
        exe.install(sink)
        source.connect_route(uni, {"sink": sink.tid})
        source.connect_route(fan, {"sink": sink.tid})
        assert source.drop_route_target("sink", types=(fan,))
        assert source.dataflow_targets(uni) == {"sink": sink.tid}
        assert source.dataflow_targets(fan) == {}
