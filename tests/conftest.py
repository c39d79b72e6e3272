"""Shared fixtures: clusters, pumps, and leak checking."""

from __future__ import annotations

import os
import time

import pytest

from repro.core.executive import Executive
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help="run the whole suite with the runtime pool sanitizer on "
        "(equivalent to REPRO_SANITIZE=1)",
    )
    parser.addoption(
        "--affinity",
        action="store_true",
        default=False,
        help="run the whole suite with the thread-affinity guard on "
        "(equivalent to REPRO_AFFINITY=1)",
    )
    parser.addoption(
        "--profile",
        action="store_true",
        default=False,
        help="run the whole suite with the sampling profiler armed on "
        "every loopback-cluster executive (equivalent to "
        "REPRO_PROFILE=1) — proves the instrumentation perturbs "
        "nothing under the sanitizer",
    )


#: Suite-wide sampler when --profile / REPRO_PROFILE=1 is on.
_profiler = None


def pytest_configure(config):
    global _profiler
    if config.getoption("--sanitize"):
        os.environ["REPRO_SANITIZE"] = "1"
    if config.getoption("--affinity"):
        os.environ["REPRO_AFFINITY"] = "1"
    if config.getoption("--profile"):
        os.environ["REPRO_PROFILE"] = "1"
    from repro.analysis.sanitize import affinity_enabled, install_affinity_guard

    if affinity_enabled():
        install_affinity_guard()
    if os.environ.get("REPRO_PROFILE") == "1":
        from repro.profile.sampler import SamplingProfiler

        _profiler = SamplingProfiler(hz=197.0)
        _profiler.start()


def pytest_unconfigure(config):
    global _profiler
    if _profiler is not None:
        _profiler.stop()
        _profiler = None


class ManualClock:
    """A clock that moves only when a test sets or advances ``t``."""

    def __init__(self) -> None:
        self.t = 0

    def now_ns(self) -> int:
        return self.t


def make_loopback_cluster(n_nodes: int) -> dict[int, Executive]:
    """N executives joined by one loopback network, PTA installed."""
    network = LoopbackNetwork()
    cluster: dict[int, Executive] = {}
    for node in range(n_nodes):
        exe = Executive(node=node)
        PeerTransportAgent.attach(exe).register(
            LoopbackTransport(network), default=True
        )
        if _profiler is not None:
            # Tests pump on the calling thread, not Executive.start.
            _profiler.register(exe)
            _profiler.watch_thread(node)
        cluster[node] = exe
    return cluster


def pump(cluster: dict[int, Executive], max_rounds: int = 100_000) -> int:
    """Step every executive until the whole cluster is idle."""
    for rounds in range(max_rounds):
        if not any(exe.step() for exe in cluster.values()):
            return rounds
    raise AssertionError("cluster did not go idle")


def drain_queues(exe: Executive) -> None:
    """Route every outbound frame and take in every inbound one without
    dispatching any: one ``step()`` with no dispatch budget."""
    budget, exe.max_dispatch_per_step = exe.max_dispatch_per_step, 0
    try:
        exe.step()
    finally:
        exe.max_dispatch_per_step = budget


def assert_no_leaks(cluster: dict[int, Executive]) -> None:
    from repro.analysis.sanitize import assert_clean

    for exe in cluster.values():
        exe.pool.check_conservation()
        assert exe.pool.in_flight == 0, (
            f"node {exe.node} leaked {exe.pool.in_flight} blocks"
        )
        assert_clean(exe.pool)  # no-op unless REPRO_SANITIZE=1


def wait_for(predicate, timeout: float = 5.0) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.001)
    return predicate()


def all_parked(exes) -> bool:
    """True once every ``start()``ed loop in ``exes`` has blocked
    (announced its park, and stayed so)."""
    if not wait_for(lambda: all(exe.msgi.parking for exe in exes)):
        return False
    time.sleep(0.02)
    return all(exe.msgi.parking for exe in exes)


def record_loop(exe: Executive) -> tuple[list[int], list[float | None]]:
    """Count ``exe``'s ``step()`` calls and record every park timeout
    (``None``: untimed).  Install before ``exe.start()``."""
    steps: list[int] = []
    parks: list[float | None] = []
    step, wait = exe.step, exe.msgi.wait_for_work

    def counted_step() -> bool:
        steps.append(1)
        return step()

    def recorded_wait(timeout=None) -> bool:
        parks.append(timeout)
        return wait(timeout)

    exe.step, exe.msgi.wait_for_work = counted_step, recorded_wait
    return steps, parks


@pytest.fixture
def two_nodes():
    """The canonical two-node loopback cluster, leak-checked on exit."""
    cluster = make_loopback_cluster(2)
    yield cluster
    pump(cluster)
    assert_no_leaks(cluster)


@pytest.fixture
def five_nodes():
    cluster = make_loopback_cluster(5)
    yield cluster
    pump(cluster)
    assert_no_leaks(cluster)
