"""System-wide routing invariants, property-tested.

Random clusters, random device placements, random message plans —
every request must end in exactly one of: delivery to the right
device, or a failure reply to its initiator.  Pool conservation must
hold afterwards on every node.  These are the paper's transparency
and fault-tolerance claims as executable properties.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.device import Listener
from repro.i2o.frame import Frame

from tests.conftest import assert_no_leaks, make_loopback_cluster, pump


class Probe(Listener):
    """Counts deliveries; records reply outcomes per context."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self.delivered: list[int] = []  # transaction contexts received
        self.outcomes: dict[int, bool] = {}  # context -> is_failure

    def on_plugin(self) -> None:
        self.bind(0x0001, self._on_msg)

    def _on_msg(self, frame: Frame) -> None:
        if frame.is_reply:
            self.outcomes[frame.initiator_context] = frame.is_failure
        else:
            self.delivered.append(frame.transaction_context)
            self.reply(frame)


@st.composite
def cluster_plan(draw):
    n_nodes = draw(st.integers(2, 5))
    devices_per_node = [draw(st.integers(1, 3)) for _ in range(n_nodes)]
    n_messages = draw(st.integers(1, 25))
    messages = []
    total_devices = sum(devices_per_node)
    for i in range(n_messages):
        src = draw(st.integers(0, total_devices - 1))
        # Target is either a real device (by global index) or a bogus
        # remote TiD that must produce a failure reply.
        bogus = draw(st.booleans()) and draw(st.integers(0, 9)) == 0
        dst = draw(st.integers(0, total_devices - 1))
        messages.append((src, dst, bogus))
    return n_nodes, devices_per_node, messages


@given(cluster_plan())
@settings(max_examples=40, deadline=None)
def test_property_every_request_delivered_or_failure_replied(plan):
    n_nodes, devices_per_node, messages = plan
    cluster = make_loopback_cluster(n_nodes)
    probes: list[tuple[int, Probe, int]] = []  # (node, device, tid)
    for node, count in enumerate(devices_per_node):
        for k in range(count):
            probe = Probe(name=f"p{node}.{k}")
            tid = cluster[node].install(probe)
            probes.append((node, probe, tid))

    expected_delivered: dict[int, list[int]] = {i: [] for i in
                                                range(len(probes))}
    expected_failures: set[int] = set()
    for context, (src_idx, dst_idx, bogus) in enumerate(messages):
        src_node, src_dev, _ = probes[src_idx]
        if bogus:
            # A remote TiD that exists on no node.
            target = cluster[src_node].routes.create_proxy(
                (src_node + 1) % n_nodes, 0xE00 + context
            )
            expected_failures.add(context)
        else:
            dst_node, _, dst_tid = probes[dst_idx]
            target = cluster[src_node].routes.create_proxy(dst_node, dst_tid)
            if target == src_dev.tid:
                # Self-send: delivered to self.
                expected_delivered[src_idx].append(context)
            else:
                expected_delivered[dst_idx].append(context)
        src_dev.send(target, b"", xfunction=0x0001,
                     transaction_context=context,
                     initiator_context=context)

    pump(cluster)

    for idx, (_, probe, _) in enumerate(probes):
        assert sorted(probe.delivered) == sorted(expected_delivered[idx])
    # Every bogus message produced exactly one failure reply at its sender.
    seen_failures = {
        ctx
        for _, probe, _ in probes
        for ctx, failed in probe.outcomes.items()
        if failed
    }
    assert seen_failures == expected_failures
    assert_no_leaks(cluster)
