#!/usr/bin/env python
"""Air-traffic monitoring: the paper's real-time-path domain (§1, [3]).

Two radar heads on their own nodes sweep a shared sector and report to
a track correlator, which fuses the picture and pushes updates to a
controller console.  Two of the aircraft are on a head-on collision
course: when their separation drops below minima, the correlator emits
a conflict alert at **priority 0** — and the seven-level I2O scheduler
guarantees it is dispatched ahead of every queued routine update, which
is precisely the paper's case for priority-scheduled message dispatch
in mission-critical systems.

The topology itself is declarative: radars emit ``atc.plot``, the
correlator consumes plots and emits ``atc.track``/``atc.alert``, the
console consumes both — bootstrap derives every route from those
declarations and rejects the spec if the DAG is unsound.

Run: ``python examples/air_traffic.py``
"""

from repro.atc.aircraft import SyntheticTraffic
from repro.config.bootstrap import bootstrap
from repro.dataflow.examples import air_traffic_spec

N_RADARS = 2


def main() -> None:
    cluster = bootstrap(air_traffic_spec(N_RADARS))

    traffic = SyntheticTraffic(n_aircraft=6, conflict_pair=True)
    correlator = cluster.device("correlator")
    console = cluster.device("console")
    radars = [cluster.device(f"radar{r}") for r in range(N_RADARS)]
    for radar in radars:
        radar.traffic = traffic  # the shared sector picture

    print(f"sector with {len(traffic.aircraft_ids())} aircraft, "
          f"{N_RADARS} radars; aircraft 0 and 1 converging head-on")
    alerted_at = None
    for step in range(40):
        traffic.advance(20.0)  # 20 s per sweep cycle
        for radar in radars:
            radar.sweep()
        cluster.pump()
        if console.alerts and alerted_at is None:
            alerted_at = step
            a, b, horizontal, vertical = console.alerts[0]
            print(f"t={traffic.t_s:5.0f}s  CONFLICT ALERT {a}<->{b}: "
                  f"{horizontal:.1f} km / {vertical:.0f} FL separation")
            break

    assert alerted_at is not None, "the conflict was never detected"
    print(f"alert raised after {alerted_at + 1} sweep cycles")
    print(f"correlator: {correlator.export_counters()}")
    print(f"console   : {console.export_counters()}")
    print("tracks on the console picture:",
          {k: tuple(round(v, 1) for v in xyz)
           for k, xyz in sorted(console.picture.items())})
    for exe in cluster.executives.values():
        exe.pool.check_conservation()
    print("all pools conserved")


if __name__ == "__main__":
    main()
