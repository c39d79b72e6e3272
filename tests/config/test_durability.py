"""Bootstrap wiring for the durability spec section."""

from __future__ import annotations

import gc
import warnings

import pytest

from repro.config.bootstrap import BootstrapError, bootstrap
from tests.dataflow import fixtures

RELIABLE = "repro.core.reliable.ReliableEndpoint"
EVM = "repro.daq.manager.EventManager"
ECHO = "repro.bench.devices.EchoDevice"


def durable_spec(tmp_path, **durability):
    durability.setdefault("dir", str(tmp_path / "state"))
    return {
        "nodes": {
            0: {"devices": [
                {"class": EVM, "name": "evm"},
                {"class": RELIABLE, "name": "rx"},
            ]},
            1: {"devices": [
                {"class": RELIABLE, "name": "feed"},
                {"class": ECHO, "name": "echo"},
            ]},
        },
        "durability": durability,
    }


class TestWiring:
    def test_journals_and_snapshots_attached(self, tmp_path):
        cluster = bootstrap(durable_spec(tmp_path))
        assert sorted(cluster.journals) == ["feed", "rx"]
        assert sorted(cluster.snapshots) == ["evm"]
        for name in ("feed", "rx"):
            store = cluster.journals[name]
            assert store.path.exists()
            assert cluster.device(name).journal is store
        assert cluster.device("evm").snapshot_store is cluster.snapshots["evm"]
        # Non-durable devices are untouched.
        assert "echo" not in cluster.journals

    def test_string_values_coerced_through_schema(self, tmp_path):
        """Spec files carry strings; the schema formats them."""
        cluster = bootstrap(durable_spec(tmp_path, fsync="true"))
        assert cluster.journals["feed"].fsync is True

    def test_existing_journal_recovers_at_bootstrap(self, tmp_path):
        """A journal left by a previous incarnation replays during
        bootstrap itself: the endpoint comes up owing its peers the
        unacknowledged tail."""
        spec = durable_spec(tmp_path)
        cluster = bootstrap(spec)
        feed = cluster.device("feed")
        peer = cluster.proxy(1, "rx")
        feed.send_reliable(peer, b"unacked")
        feed.commit()
        # Simulate process death: committed, nothing pumped or acked.
        for store in cluster.journals.values():
            store.close()
        reborn = bootstrap(durable_spec(tmp_path))
        assert reborn.device("feed").replayed == 1
        assert reborn.device("feed").recoveries == 1
        assert reborn.device("rx").replayed == 0


class TestRejection:
    def test_missing_dir_rejected(self, tmp_path):
        spec = durable_spec(tmp_path)
        del spec["durability"]["dir"]
        with pytest.raises(BootstrapError, match="dir"):
            bootstrap(spec)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(BootstrapError, match="durability"):
            bootstrap(durable_spec(tmp_path, wal_mode="paranoid"))

    def test_out_of_range_value_rejected(self, tmp_path):
        with pytest.raises(BootstrapError, match="durability"):
            bootstrap(durable_spec(tmp_path, fsync="maybe"))

    @pytest.mark.parametrize("refusal", ["later-section", "later-store"])
    def test_refused_boot_leaves_no_journal_open(self, tmp_path, refusal):
        if refusal == "later-section":
            # the dataflow analysis refuses the topology
            spec = fixtures.missing_consumer_spec()
            spec["nodes"][0]["devices"].append(
                {"class": RELIABLE, "name": "rel"}
            )
            spec["durability"] = {"dir": str(tmp_path / "state")}
            expected: type[Exception] = BootstrapError
        else:
            # feed's journal opens, then rx's path cannot be opened
            spec = durable_spec(tmp_path)
            (tmp_path / "state" / "rx.journal").mkdir(parents=True)
            expected = OSError
        gc.collect()  # earlier tests' clusters are not this one's leak
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(expected):
                bootstrap(spec)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
