"""The typed message registry: naming, idempotence, conflicts."""

from __future__ import annotations

import pytest

from repro.dataflow.registry import (
    MessageType,
    _unregister,
    lookup,
    message_type,
    registered,
)
from repro.i2o.errors import I2OError
from repro.i2o.function_codes import PRIVATE


@pytest.fixture
def scratch_name():
    name = "test.scratch-type"
    yield name
    _unregister(name)


class TestRegistration:
    def test_registers_and_looks_up(self, scratch_name):
        mtype = message_type(scratch_name, 0x0E01, mode="fanout", priority=2)
        assert lookup(scratch_name) is mtype
        assert mtype.code == (PRIVATE, 0x0E01, 0)
        assert mtype.mode == "fanout"
        assert mtype.priority == 2

    def test_identical_redeclaration_is_idempotent(self, scratch_name):
        first = message_type(scratch_name, 0x0E01)
        again = message_type(scratch_name, 0x0E01)
        assert again is first

    def test_conflicting_redeclaration_raises(self, scratch_name):
        message_type(scratch_name, 0x0E01)
        with pytest.raises(I2OError, match="different contract"):
            message_type(scratch_name, 0x0E02)

    def test_unknown_lookup_names_the_known_types(self):
        with pytest.raises(I2OError, match="unknown message type"):
            lookup("test.never-registered")

    def test_registered_is_name_ordered(self, scratch_name):
        message_type(scratch_name, 0x0E01)
        names = [m.name for m in registered()]
        assert names == sorted(names)
        assert scratch_name in names


class TestValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(I2OError, match="mode"):
            MessageType("test.bad-mode", 0x0E10, mode="broadcast")

    def test_bad_saturation_policy_rejected(self):
        with pytest.raises(I2OError, match="on_saturation"):
            MessageType("test.bad-sat", 0x0E11, on_saturation="explode")

    def test_priority_out_of_range_rejected(self):
        with pytest.raises(I2OError, match="priority"):
            MessageType("test.bad-prio", 0x0E12, priority=99)

    def test_empty_name_rejected(self):
        with pytest.raises(I2OError, match="name"):
            MessageType("", 0x0E13)


class TestProtocolDeclarations:
    def test_daq_vocabulary_is_registered(self):
        from repro.daq.protocol import DAQ_ORG

        assert lookup("daq.trigger").organization == DAQ_ORG
        assert lookup("daq.readout").mode == "fanout"
        assert lookup("daq.allocate").mode == "keyed"
        assert lookup("daq.event-done").feedback is True

    def test_atc_vocabulary_priorities(self):
        from repro.atc.protocol import ALERT_PRIORITY, UPDATE_PRIORITY

        assert lookup("atc.conflict-alert").priority == ALERT_PRIORITY
        assert lookup("atc.track-update").priority == UPDATE_PRIORITY
        assert lookup("atc.track-update").on_saturation == "shed"
