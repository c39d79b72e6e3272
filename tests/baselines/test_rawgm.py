"""The raw GM ping-pong baseline."""

from __future__ import annotations

import pytest

from repro.baselines.rawgm import GmPingPong
from repro.hw.myrinet import Fabric, MyrinetParams
from repro.sim.kernel import Simulator


def one_way_us(
    payload_size: int, rounds: int, params: MyrinetParams | None = None
) -> float:
    sim = Simulator()
    bench = GmPingPong(
        sim, Fabric(sim, params), payload_size=payload_size, rounds=rounds
    )
    bench.start()
    sim.run()
    return bench.one_way_us()


def test_completes_all_rounds():
    sim = Simulator()
    bench = GmPingPong(sim, Fabric(sim), payload_size=64, rounds=25)
    bench.start()
    sim.run()
    assert len(bench.rtts_ns) == 25


def test_one_way_is_half_rtt():
    sim = Simulator()
    bench = GmPingPong(sim, Fabric(sim), payload_size=64, rounds=10)
    bench.start()
    sim.run()
    import numpy as np

    assert bench.one_way_us() == pytest.approx(
        float(np.mean(bench.rtts_ns)) / 2000.0
    )


def test_latency_matches_fabric_law():
    """One way = the fabric's analytic latency (GM adds no queueing in
    lockstep ping-pong)."""
    sim = Simulator()
    fabric = Fabric(sim)
    bench = GmPingPong(sim, fabric, payload_size=512, rounds=10)
    bench.start()
    sim.run()
    assert bench.rtts_ns[-1] == 2 * fabric.expected_one_way_ns(512)


def test_convenience_runner_monotone_in_payload():
    small = one_way_us(16, rounds=10)
    large = one_way_us(4096, rounds=10)
    assert large > small


def test_unrun_one_way_raises():
    sim = Simulator()
    bench = GmPingPong(sim, Fabric(sim), payload_size=1, rounds=1)
    with pytest.raises(RuntimeError):
        bench.one_way_us()


def test_custom_params_change_latency():
    fast = MyrinetParams(pci_dma_ns_per_byte=5.0)
    default = one_way_us(4096, rounds=5)
    quicker = one_way_us(4096, rounds=5, params=fast)
    assert quicker < default
