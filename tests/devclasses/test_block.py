"""The Block Storage device class, local and over the wire."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devclasses.block import (
    BlockClient,
    BlockDeviceError,
    BlockStorageDevice,
)

from tests.conftest import make_loopback_cluster


@pytest.fixture
def rig():
    """Client on node 0, block device on node 1."""
    cluster = make_loopback_cluster(2)
    device = BlockStorageDevice(block_size=512, capacity_blocks=64)
    dev_tid = cluster[1].install(device)

    def pump():
        for exe in cluster.values():
            exe.step()

    client = BlockClient(pump=pump)
    cluster[0].install(client)
    proxy = cluster[0].routes.create_proxy(1, dev_tid)
    return cluster, device, client, proxy


class TestReadWrite:
    def test_write_then_read_back(self, rig):
        _, device, client, proxy = rig
        block = bytes(range(256)) * 2  # 512 B
        client.write(proxy, 5, block)
        assert client.read(proxy, 5) == block
        assert device.writes == 1 and device.reads == 1

    def test_fresh_medium_reads_zeroes(self, rig):
        _, _, client, proxy = rig
        assert client.read(proxy, 0) == bytes(512)

    def test_multi_block_span(self, rig):
        _, _, client, proxy = rig
        data = b"\xAB" * (512 * 4)
        client.write(proxy, 10, data)
        assert client.read(proxy, 10, count=4) == data
        # Adjacent blocks untouched.
        assert client.read(proxy, 9) == bytes(512)
        assert client.read(proxy, 14) == bytes(512)

    def test_out_of_range_read_fails(self, rig):
        _, device, client, proxy = rig
        with pytest.raises(BlockDeviceError, match="status 1"):
            client.read(proxy, 64)
        with pytest.raises(BlockDeviceError):
            client.read(proxy, 60, count=10)
        assert device.errors == 2

    def test_partial_block_write_refused(self, rig):
        _, _, client, proxy = rig
        client.status(proxy)  # learn block size
        with pytest.raises(BlockDeviceError, match="whole number"):
            client.write(proxy, 0, b"short")

    @given(st.integers(0, 63), st.binary(min_size=512, max_size=512))
    @settings(max_examples=25, deadline=None)
    def test_property_read_after_write(self, lba, data):
        cluster = make_loopback_cluster(2)
        device = BlockStorageDevice(block_size=512, capacity_blocks=64)
        dev_tid = cluster[1].install(device)

        def pump():
            for exe in cluster.values():
                exe.step()

        client = BlockClient(pump=pump)
        cluster[0].install(client)
        proxy = cluster[0].routes.create_proxy(1, dev_tid)
        client.write(proxy, lba, data)
        assert client.read(proxy, lba) == data


class TestStatusAndLock:
    def test_status_block(self, rig):
        _, _, client, proxy = rig
        status = client.status(proxy)
        assert status["capacity_blocks"] == 64
        assert status["block_size"] == 512
        assert status["media_locked"] == 0

    def test_media_lock_blocks_writes(self, rig):
        _, device, client, proxy = rig
        assert client.toggle_media_lock(proxy) is True
        with pytest.raises(BlockDeviceError, match="status 2"):
            client.write(proxy, 0, bytes(512))
        assert client.toggle_media_lock(proxy) is False
        client.write(proxy, 0, bytes(512))  # unlocked again

    def test_counters_via_standard_params(self, rig):
        cluster, device, client, proxy = rig
        client.write(proxy, 1, bytes(512))
        client.read(proxy, 1)
        assert device.export_counters()["reads"] == 1
        assert device.export_counters()["writes"] == 1

    def test_reset_releases_lock(self, rig):
        _, device, client, proxy = rig
        client.toggle_media_lock(proxy)
        device.on_reset()
        assert not device.media_locked
