"""The Sequential (tape) Storage device class."""

from __future__ import annotations

import pytest

from repro.devclasses.sequential import (
    SequentialClient,
    SequentialStorageDevice,
    TapeMark,
)
from repro.i2o.errors import I2OError

from tests.conftest import make_loopback_cluster


@pytest.fixture
def rig():
    cluster = make_loopback_cluster(2)
    device = SequentialStorageDevice()
    dev_tid = cluster[1].install(device)

    def pump():
        for exe in cluster.values():
            exe.step()

    client = SequentialClient(pump=pump)
    cluster[0].install(client)
    proxy = cluster[0].routes.create_proxy(1, dev_tid)
    return device, client, proxy


class TestSequentialAccess:
    def test_write_rewind_read(self, rig):
        _, client, tape = rig
        client.write(tape, b"record one")
        client.write(tape, b"record two")
        client.rewind(tape)
        assert client.read(tape) == b"record one"
        assert client.read(tape) == b"record two"

    def test_read_past_end_fails(self, rig):
        _, client, tape = rig
        client.write(tape, b"only")
        client.rewind(tape)
        client.read(tape)
        with pytest.raises(I2OError, match="status 1"):
            client.read(tape)

    def test_write_truncates_past_head(self, rig):
        """Tape semantics: writing mid-tape destroys what follows."""
        _, client, tape = rig
        for i in range(3):
            client.write(tape, f"r{i}".encode())
        client.rewind(tape)
        client.read(tape)  # head after r0
        client.write(tape, b"NEW")
        client.rewind(tape)
        assert client.read(tape) == b"r0"
        assert client.read(tape) == b"NEW"
        with pytest.raises(I2OError):
            client.read(tape)  # r1, r2 gone

    def test_space_moves_head_both_ways(self, rig):
        _, client, tape = rig
        for i in range(5):
            client.write(tape, f"r{i}".encode())
        client.space(tape, -2)
        assert client.read(tape) == b"r3"
        client.space(tape, -4)
        assert client.read(tape) == b"r0"

    def test_space_beyond_tape_fails(self, rig):
        _, client, tape = rig
        client.write(tape, b"x")
        with pytest.raises(I2OError):
            client.space(tape, -5)
        with pytest.raises(I2OError):
            client.space(tape, 5)

    def test_filemarks_partition_files(self, rig):
        _, client, tape = rig
        client.write(tape, b"a1")
        client.write(tape, b"a2")
        client.write_filemark(tape)
        client.write(tape, b"b1")
        client.rewind(tape)
        assert client.read_file(tape) == [b"a1", b"a2"]
        assert client.read_file(tape) == [b"b1"]

    def test_filemark_read_as_mark(self, rig):
        _, client, tape = rig
        client.write_filemark(tape)
        client.rewind(tape)
        assert isinstance(client.read(tape), TapeMark)

    def test_capacity_limit(self, rig):
        cluster = make_loopback_cluster(2)
        device = SequentialStorageDevice(max_records=2)
        dev_tid = cluster[1].install(device)

        def pump():
            for exe in cluster.values():
                exe.step()

        client = SequentialClient(pump=pump)
        cluster[0].install(client)
        tape = cluster[0].routes.create_proxy(1, dev_tid)
        client.write(tape, b"1")
        client.write(tape, b"2")
        with pytest.raises(I2OError, match="status 1"):
            client.write(tape, b"3")

    def test_counters(self, rig):
        device, client, tape = rig
        client.write(tape, b"x")
        client.rewind(tape)
        client.read(tape)
        counters = device.export_counters()
        assert counters["records"] == 1
        assert counters["reads"] == 1
        assert counters["writes"] == 1
