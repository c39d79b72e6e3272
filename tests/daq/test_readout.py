"""The readout unit: fragments by reference, parked requests owned."""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.config.bootstrap import BootstrapError, bootstrap
from repro.core.device import Listener
from repro.daq import readout
from repro.daq.events import synthesize_fragment
from repro.daq.protocol import (
    EVENT_ID,
    MT_READOUT,
    MT_REQUEST_FRAGMENT,
    XF_REQUEST_FRAGMENT,
)
from repro.dataflow.examples import event_builder_spec
from repro.i2o.errors import I2OError

from tests.conftest import assert_no_leaks


class _Asker(Listener):
    """Requests fragments by hand and keeps the reply payloads."""

    def __init__(self) -> None:
        super().__init__("asker")
        self.replies: list[bytes] = []

    def on_plugin(self) -> None:
        self.bind(XF_REQUEST_FRAGMENT, self._on_reply)

    def _on_reply(self, frame) -> None:
        self.replies.append(bytes(frame.payload))


@pytest.fixture
def cluster():
    built = bootstrap(event_builder_spec(2, 2, mean_fragment=512))
    yield built
    built.pump()
    assert_no_leaks(built.executives)


def _park_a_request_on_every_ru(cluster, event_id=999):
    """A builder asks for an event no readout unit has heard of."""
    for name in ("bu0", "bu1"):
        cluster.device(name).emit(
            MT_REQUEST_FRAGMENT, EVENT_ID.pack(event_id)
        )
    cluster.pump()
    rus = [cluster.device("ru0"), cluster.device("ru1")]
    assert [ru.parked_requests for ru in rus] == [2, 2]
    in_flight = sum(exe.pool.in_flight for exe in cluster.executives.values())
    assert in_flight == 4  # the RETAINed request frames
    return rus


class TestServeByReference:
    @pytest.mark.parametrize("event_id", [1, 2, 1000004, 2**40 + 5])
    def test_reply_is_the_synthesized_fragment(self, cluster, event_id):
        asker = _Asker()
        exe = cluster.executives[0]
        exe.install(asker)
        evm = cluster.device("evm")
        evm.emit(MT_READOUT, EVENT_ID.pack(event_id))
        for ru_id, tid in evm.ru_tids.items():
            asker.send(tid, EVENT_ID.pack(event_id),
                       xfunction=XF_REQUEST_FRAGMENT)
            cluster.pump()
            assert asker.replies.pop() == synthesize_fragment(
                event_id, ru_id, mean=512
            )

    def test_buffers_hold_views_not_wire_bytes(self, cluster):
        cluster.device("evm").emit(MT_READOUT, EVENT_ID.pack(5))
        cluster.pump()
        ((data, crc),) = cluster.device("ru0")._buffers.values()
        assert isinstance(data, memoryview) and data.readonly
        assert isinstance(crc, int)

    def test_serve_path_assembles_no_intermediate_bytes(self):
        """Structural: the fragment goes arena -> loaned frame; the
        staging encoders are not reachable from ``daq/readout.py``."""
        called = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(inspect.getsource(readout)))
            if isinstance(node, ast.Call)
        }
        assert {"reply_into", "write_fragment"} <= called
        assert not called & {
            "synthesize_fragment", "make_fragment_payload", "reply",
            "bytes", "tobytes",
        }


class TestParkedRequestsAreFreed:
    def test_reset_frees_parked_frames(self, cluster):
        for ru in _park_a_request_on_every_ru(cluster):
            ru.on_reset()
            assert ru.parked_requests == 0
        assert_no_leaks(cluster.executives)

    def test_unplug_frees_parked_frames(self, cluster):
        for ru in _park_a_request_on_every_ru(cluster):
            ru.executive.uninstall(ru.tid)
        assert_no_leaks(cluster.executives)

    def test_a_failing_reply_strands_no_parked_frame(self, cluster):
        rus = _park_a_request_on_every_ru(cluster)
        for ru in rus:
            served = ru._serve

            def exhausted_once(request, ru=ru, served=served):
                ru._serve = served
                raise I2OError("pool exhausted")

            ru._serve = exhausted_once
        cluster.device("evm").emit(MT_READOUT, EVENT_ID.pack(999))
        cluster.pump()
        assert [ru.parked_requests for ru in rus] == [0, 0]
        # The handler died on the first reply; the second request goes
        # unanswered (its builder is re-driven by the EVM's timeout) but
        # its frame is not stranded.
        assert [ru.served for ru in rus] == [0, 0]
        assert_no_leaks(cluster.executives)


class TestBadMeanRefusedAtBoot:
    """A mean no size can be drawn from fails the boot, naming the
    device, instead of the first ``XF_READOUT`` dispatch."""

    @pytest.mark.parametrize("mean", [-5, 0, float("nan"), float("inf")])
    def test_boot_fails_naming_the_readout_unit(self, mean):
        with pytest.raises(
            BootstrapError,
            match="cannot construct repro.daq.readout.ReadoutUnit: fragment mean",
        ):
            bootstrap(event_builder_spec(1, 1, mean_fragment=mean))
