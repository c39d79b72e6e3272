"""The simulated Myrinet/GM peer transport."""

from __future__ import annotations

from repro.bench.pingpong import build_gm_cluster
from repro.core.probes import CostModel


def run_pingpong(payload: int, rounds: int, cost_model=None):
    cluster = build_gm_cluster(cost_model=cost_model)
    cluster.ping.configure(cluster.ping.peer, payload, rounds)
    cluster.sim.at(0, cluster.ping.kick)
    cluster.sim.run()
    return cluster


class TestRoundTrips:
    def test_all_rounds_complete(self):
        cluster = run_pingpong(256, 50)
        assert len(cluster.ping.rtts_ns) == 50
        assert cluster.echo.echoed == 50

    def test_payload_integrity_checked_by_ping_device(self):
        # PingDevice raises if the echo truncates; completing is the assert.
        cluster = run_pingpong(4096, 10)
        assert len(cluster.ping.rtts_ns) == 10

    def test_no_leaked_blocks_after_run(self):
        cluster = run_pingpong(1024, 30)
        cluster.exe_a.pool.check_conservation()
        cluster.exe_b.pool.check_conservation()
        assert cluster.exe_a.pool.in_flight == 0
        assert cluster.exe_b.pool.in_flight == 0

    def test_rtt_grows_with_payload(self):
        small = run_pingpong(64, 20).ping.rtts_ns[-1]
        large = run_pingpong(4096, 20).ping.rtts_ns[-1]
        assert large > small

    def test_framework_overhead_is_cost_model_dependent(self):
        slow = run_pingpong(256, 20).ping.rtts_ns[-1]
        fast = run_pingpong(
            256, 20, cost_model=CostModel.optimised_allocator()
        ).ping.rtts_ns[-1]
        assert fast < slow

    def test_steady_state_rtt_is_deterministic_constant(self):
        cluster = run_pingpong(512, 30)
        steady = cluster.ping.rtts_ns[5:]
        assert len(set(steady)) == 1  # fully deterministic model


class TestGmTransportInternals:
    def test_receive_tokens_replenished(self):
        cluster = run_pingpong(64, 40)
        pt = cluster.exe_b.pta.transport("gm")
        assert pt.port is not None
        assert pt.port.dropped == 0
        # All provided buffers returned: pending backlog empty.
        assert not pt.has_pending

    def test_wire_counter_matches_rounds(self):
        cluster = run_pingpong(64, 25)
        assert cluster.fabric.stats.messages == 50  # 25 each way
        pt_a = cluster.exe_a.pta.transport("gm")
        assert pt_a.frames_sent == 25
        assert pt_a.frames_received == 25
