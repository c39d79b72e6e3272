"""The air-traffic monitoring kit: fusion, alerts, priorities."""

from __future__ import annotations


from repro.atc.aircraft import SyntheticTraffic
from repro.atc.console import AlertConsole
from repro.atc.correlator import TrackCorrelator
from repro.atc.protocol import (
    ALERT_PRIORITY,
    MIN_HORIZONTAL_KM,
    UPDATE_PRIORITY,
    XF_CONFLICT_ALERT,
    pack_alert,
)
from repro.atc.radar import RadarSource

from repro.dataflow.wiring import wire_dataflow

from tests.conftest import (
    assert_no_leaks,
    drain_queues,
    make_loopback_cluster,
    pump,
)


def build_sector(*, n_aircraft=4, n_radars=2, conflict_pair=False, seed=0):
    """Radars on nodes 1..n, correlator on 0, console on last node."""
    n_nodes = 2 + n_radars
    cluster = make_loopback_cluster(n_nodes)
    traffic = SyntheticTraffic(n_aircraft, seed=seed,
                               conflict_pair=conflict_pair)
    correlator = TrackCorrelator()
    cluster[0].install(correlator)
    console = AlertConsole()
    cluster[n_nodes - 1].install(console)
    radars = []
    for r in range(n_radars):
        radar = RadarSource(radar_id=r, traffic=traffic, seed=seed + r)
        cluster[1 + r].install(radar)
        radars.append(radar)
    wire_dataflow(cluster, backpressure=False)
    return cluster, traffic, radars, correlator, console


class TestFusion:
    def test_reports_become_tracks(self):
        cluster, traffic, radars, correlator, console = build_sector()
        for radar in radars:
            radar.sweep()
        pump(cluster)
        assert correlator.reports_received == 8  # 4 aircraft x 2 radars
        assert len(correlator.tracks) == 4
        assert len(console.picture) == 4
        assert_no_leaks(cluster)

    def test_fused_position_near_truth(self):
        cluster, traffic, radars, correlator, console = build_sector()
        for _ in range(5):
            for radar in radars:
                radar.sweep()
        pump(cluster)
        for state in traffic.positions():
            fused = correlator.tracks[state.aircraft_id]
            assert abs(fused.x_km - state.x_km) < 1.0  # noise is 0.1 km
            assert abs(fused.y_km - state.y_km) < 1.0

    def test_track_counters_via_standard_params(self):
        cluster, traffic, radars, correlator, console = build_sector()
        radars[0].sweep()
        pump(cluster)
        counters = correlator.export_counters()
        assert counters["reports_received"] == 4
        assert counters["tracks"] == 4


class TestConflictDetection:
    def test_separated_traffic_raises_no_alert(self):
        cluster, traffic, radars, correlator, console = build_sector()
        assert traffic.closest_pair_km() > MIN_HORIZONTAL_KM
        for radar in radars:
            radar.sweep()
        pump(cluster)
        assert console.alerts == []

    def test_converging_pair_raises_alert_before_impact(self):
        cluster, traffic, radars, correlator, console = build_sector(
            conflict_pair=True
        )
        # Fly the pair together in 20 s steps; sweep every step.
        for _ in range(30):
            traffic.advance(20.0)
            for radar in radars:
                radar.sweep()
            pump(cluster)
            if console.alerts:
                break
        assert console.alerts, "converging aircraft never alerted"
        a, b, horizontal, vertical = console.alerts[0]
        assert (a, b) == (0, 1)
        assert horizontal < MIN_HORIZONTAL_KM
        # Alerted while still apart, not at the merge point.
        assert horizontal > 0.5

    def test_no_alert_storm_for_persistent_conflict(self):
        cluster, traffic, radars, correlator, console = build_sector(
            conflict_pair=True
        )
        # Park the pair inside the minima and sweep repeatedly.
        for _ in range(40):
            traffic.advance(5.0)
        for _ in range(10):
            for radar in radars:
                radar.sweep()
            pump(cluster)
        assert correlator.alerts_sent <= 2  # one per entry, not per sweep


class TestRealTimePath:
    def test_alert_preempts_queued_updates(self):
        """The headline: a priority-0 alert dispatched ahead of a deep
        queue of priority-4 updates already waiting at the console."""
        cluster = make_loopback_cluster(2)
        console = AlertConsole()
        console_tid = cluster[1].install(console)
        correlator = TrackCorrelator()
        cluster[0].install(correlator)
        console_proxy = cluster[0].routes.create_proxy(1, console_tid)
        # Queue many routine updates, then one alert, all before the
        # console's executive dispatches anything.
        from repro.atc.protocol import pack_position

        for i in range(50):
            correlator.send(
                console_proxy,
                pack_position(i, 0, 0.0, 0.0, 200.0, 0),
                xfunction=0x0302, priority=UPDATE_PRIORITY,
            )
        correlator.send(
            console_proxy,
            pack_alert(1, 2, 3.0, 0.0),
            xfunction=XF_CONFLICT_ALERT, priority=ALERT_PRIORITY,
        )
        # Route everything to the console's scheduler without dispatch.
        cluster[0].run_until_idle()
        pt = cluster[1].pta.transport("loopback")
        pt.poll()
        drain_queues(cluster[1])
        assert len(cluster[1].scheduler) == 51
        # Now dispatch: the alert must come out first.
        pump(cluster)
        assert console.log[0] == ("alert", (1, 2))
        assert all(kind == "update" for kind, _ in console.log[1:])
