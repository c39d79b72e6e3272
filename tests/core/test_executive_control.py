"""Executive control messages: DDM destroy and path claim over the wire."""

from __future__ import annotations

import pytest

from repro.core.device import Listener, decode_params, encode_params
from repro.i2o.function_codes import EXEC_DDM_DESTROY, EXEC_PATH_CLAIM
from repro.i2o.tid import EXECUTIVE_TID, PTA_TID

from tests.conftest import assert_no_leaks, make_loopback_cluster, pump


class Collector(Listener):
    def __init__(self, name="collector"):
        super().__init__(name)
        self.replies = []

    def on_plugin(self):
        for func in (EXEC_DDM_DESTROY, EXEC_PATH_CLAIM):
            self.table.bind(func, self._on_reply)

    def _on_reply(self, frame):
        if frame.is_reply:
            self.replies.append((frame.is_failure, bytes(frame.payload)))


@pytest.fixture
def rig():
    cluster = make_loopback_cluster(2)
    collector = Collector()
    cluster[0].install(collector)
    exec_proxy = cluster[0].routes.create_proxy(1, EXECUTIVE_TID)
    return cluster, collector, exec_proxy


class TestDdmDestroy:
    def test_destroys_remote_device(self, rig):
        cluster, collector, exec_proxy = rig
        victim_tid = cluster[1].install(Listener("victim"))
        collector.send(exec_proxy, str(victim_tid).encode(),
                       function=EXEC_DDM_DESTROY)
        pump(cluster)
        assert collector.replies == [(False, b"")]
        assert victim_tid not in cluster[1].devices()
        assert_no_leaks(cluster)

    @pytest.mark.parametrize("tid", [EXECUTIVE_TID, PTA_TID])
    def test_infrastructure_refused(self, rig, tid):
        cluster, collector, exec_proxy = rig
        collector.send(exec_proxy, str(tid).encode(),
                       function=EXEC_DDM_DESTROY)
        pump(cluster)
        assert collector.replies[0][0] is True  # failure
        assert tid in cluster[1].devices()

    def test_transport_refused(self, rig):
        cluster, collector, exec_proxy = rig
        pt_tid = cluster[1].pta.transport("loopback").tid
        collector.send(exec_proxy, str(pt_tid).encode(),
                       function=EXEC_DDM_DESTROY)
        pump(cluster)
        assert collector.replies[0][0] is True

    def test_garbage_payload_fails_cleanly(self, rig):
        cluster, collector, exec_proxy = rig
        collector.send(exec_proxy, b"not-a-tid", function=EXEC_DDM_DESTROY)
        pump(cluster)
        assert collector.replies[0][0] is True

    def test_unknown_tid_fails_cleanly(self, rig):
        cluster, collector, exec_proxy = rig
        collector.send(exec_proxy, b"999", function=EXEC_DDM_DESTROY)
        pump(cluster)
        assert collector.replies[0][0] is True


class TestPathClaim:
    def test_builds_usable_remote_proxy(self, rig):
        """Node 0 asks node 1's executive to build a proxy back to a
        device on node 0, then node 1 traffic flows through it."""
        cluster, collector, exec_proxy = rig
        target = Listener("target-on-0")
        target_tid = cluster[0].install(target)
        hits = []
        target.bind(0x5, lambda f: hits.append(f) if not f.is_reply else None)
        collector.send(
            exec_proxy,
            encode_params({"node": "0", "tid": str(target_tid)}),
            function=EXEC_PATH_CLAIM,
        )
        pump(cluster)
        failed, payload = collector.replies[0]
        assert not failed
        proxy_on_1 = int(decode_params(payload)["proxy"])
        # Use the claimed path from node 1.
        sender = Listener("sender-on-1")
        cluster[1].install(sender)
        sender.send(proxy_on_1, b"via claimed path", xfunction=0x5)
        pump(cluster)
        assert len(hits) == 1

    def test_unregistered_transport_is_refused_by_name(self, rig):
        """A claim pinned to a transport node 1 never registered gets a
        failure reply naming it, and no proxy: such claims once used up
        the TiD space, after which a legitimate claim failed too."""
        cluster, collector, exec_proxy = rig
        proxies = len(cluster[1].routes.by_proxy)
        claim = {"node": "0", "tid": "5", "transport": "bogus"}
        collector.send(exec_proxy, encode_params(claim),
                       function=EXEC_PATH_CLAIM)
        pump(cluster)
        assert collector.replies == [
            (True, encode_params({"error": "no transport named 'bogus'"}))
        ]
        # the one new proxy is the collector's, made when its request arrived
        assert len(cluster[1].routes.by_proxy) == proxies + 1
        assert all(route.transport != "bogus"
                   for route in cluster[1].routes.by_proxy.values())

    def test_malformed_request_fails(self, rig):
        cluster, collector, exec_proxy = rig
        collector.send(exec_proxy, encode_params({"node": "x"}),
                       function=EXEC_PATH_CLAIM)
        pump(cluster)
        assert collector.replies[0][0] is True

    @pytest.mark.parametrize("node", ["5000", "4096", "-1"])
    def test_node_id_out_of_range_fails(self, rig, node):
        """A claim for a node id the wire cannot carry gets a failure
        reply, not a proxy: bogus claims cannot use up the TiD space."""
        cluster, collector, exec_proxy = rig
        collector.send(exec_proxy, encode_params({"node": node, "tid": "5"}),
                       function=EXEC_PATH_CLAIM)
        pump(cluster)
        assert collector.replies == [(True, b"")]
        assert cluster[1].routes.routes_to(int(node)) == []
