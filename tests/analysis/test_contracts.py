"""The dataflow contract is enforced where it is used, not by the lint.

A device's ``emits`` is its route table: an emission it never declared
has no route and raises.  Its ``consumes`` feeds the boot-time DAG
analysis: a handler bound for a type the contract omits leaves that
type without a consumer, and strict wiring refuses the topology.
"""

from __future__ import annotations

import pytest

from repro.config.bootstrap import BootstrapError, bootstrap
from repro.daq.builder import BuilderUnit
from repro.daq.protocol import EVENT_ID, MT_ABANDON, MT_ALLOCATE, MT_TRIGGER
from repro.dataflow.examples import event_builder_spec
from repro.i2o.errors import I2OError


@pytest.fixture
def cluster():
    return bootstrap(event_builder_spec(1, 1))


class TestDfl002:
    def test_undeclared_emit(self, cluster):
        trigger = cluster.device("trigger")
        with pytest.raises(I2OError, match="declare it in 'emits'"):
            trigger.emit(MT_ABANDON, EVENT_ID.pack(1))
        for exe in cluster.executives.values():
            assert exe.pool.in_flight == 0

    def test_declared_emit_is_fine(self, cluster):
        cluster.device("trigger").emit(MT_TRIGGER, EVENT_ID.pack(1))
        cluster.pump()
        assert cluster.device("evm").export_counters()["completed"] == 1


class TestDfl003:
    def test_stray_bind(self, monkeypatch):
        # The builder binds XF_ABANDON; a contract that forgets
        # MT_ABANDON leaves the manager's abandon with no consumer.
        monkeypatch.setattr(BuilderUnit, "consumes", (MT_ALLOCATE,))
        with pytest.raises(BootstrapError, match="missing-consumer") as exc:
            bootstrap(event_builder_spec(1, 1))
        assert "daq.abandon" in str(exc.value)

    def test_consumed_bind_is_fine(self, cluster):
        assert cluster.dataflow_graph.analyze() == []
