"""Bootstrap wiring for the per-node flight recorders."""

from __future__ import annotations

import pytest

from repro.config.bootstrap import BootstrapError, bootstrap
from repro.flightrec import load_dump
from repro.flightrec.records import EV_HARD_STOP

ECHO = "repro.bench.devices.EchoDevice"
PING = "repro.bench.devices.PingDevice"


def spec_with_recorder(tmp_path, **extra):
    return {
        "transport": "loopback",
        "flight_recorder": {"dir": str(tmp_path / "crash"), **extra},
        "nodes": {
            0: {"devices": [{"class": PING, "name": "ping"}]},
            1: {"devices": [{"class": ECHO, "name": "echo"}]},
        },
    }


class TestWiring:
    def test_every_node_gets_a_recorder(self, tmp_path):
        cluster = bootstrap(spec_with_recorder(tmp_path))
        assert sorted(cluster.flight_recorders) == [0, 1]
        for node, exe in cluster.executives.items():
            recorder = cluster.flight_recorders[node]
            assert exe.flightrec is recorder
            assert recorder.node == node
            assert recorder.clock is exe.clock
            assert recorder.capacity == 4096  # the schema default

    def test_capacity_forwarded(self, tmp_path):
        cluster = bootstrap(spec_with_recorder(tmp_path, capacity=64))
        assert cluster.flight_recorders[0].capacity == 64

    def test_string_capacity_coerced(self, tmp_path):
        cluster = bootstrap(spec_with_recorder(tmp_path, capacity="128"))
        assert cluster.flight_recorders[1].capacity == 128

    def test_hard_stop_spills_into_the_configured_dir(self, tmp_path):
        cluster = bootstrap(spec_with_recorder(tmp_path))
        cluster.executives[1].hard_stop()
        dump = load_dump(tmp_path / "crash" / "node001.flightrec")
        assert dump.node == 1
        assert dump.of_kind(EV_HARD_STOP)

    def test_no_section_means_no_recorders(self, tmp_path):
        spec = spec_with_recorder(tmp_path)
        del spec["flight_recorder"]
        cluster = bootstrap(spec)
        assert cluster.flight_recorders == {}
        assert all(
            exe.flightrec is None for exe in cluster.executives.values()
        )


class TestRejection:
    def test_missing_dir_rejected(self, tmp_path):
        spec = spec_with_recorder(tmp_path)
        del spec["flight_recorder"]["dir"]
        with pytest.raises(BootstrapError, match="'dir'"):
            bootstrap(spec)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(BootstrapError, match="bad flight_recorder"):
            bootstrap(spec_with_recorder(tmp_path, verbosity=3))

    def test_out_of_range_capacity_rejected(self, tmp_path):
        with pytest.raises(BootstrapError, match="bad flight_recorder"):
            bootstrap(spec_with_recorder(tmp_path, capacity=1))
