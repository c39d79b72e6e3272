"""Radar sources: sensor heads emitting position reports.

A radar sweeps its share of the traffic picture and sends one
``XF_POSITION`` frame per aircraft per ``sweep()`` — the domain the
paper's reference [3] comes from.

Measurement noise is seeded per radar, so two radars disagree slightly
about the same aircraft — which is what gives the correlator a fusion
job.
"""

from __future__ import annotations

from repro.atc.aircraft import SyntheticTraffic
from repro.atc.protocol import MT_POSITION, pack_position
from repro.config.schema import ParamSchema, ParamSpec, SchemaListenerMixin
from repro.core.device import Listener
from repro.i2o.errors import I2OError
from repro.i2o.tid import Tid
from repro.sim.rng import RngStreams


class RadarSource(SchemaListenerMixin, Listener):
    """One radar head watching a shared traffic picture."""

    device_class = "atc_radar"
    emits = (MT_POSITION,)

    schema = ParamSchema([
        ParamSpec("noise_km", float, default=0.1, minimum=0.0,
                  description="1-sigma position noise"),
    ])

    def __init__(self, name: str = "", radar_id: int = 0,
                 traffic: SyntheticTraffic | None = None, *,
                 seed: int = 0) -> None:
        super().__init__(name or f"radar{radar_id}")
        self.radar_id = radar_id
        self.traffic = traffic
        self._rng = RngStreams(seed).stream(f"radar{radar_id}-noise")
        self.sweeps = 0
        self.reports_sent = 0

    @property
    def correlator_tid(self) -> Tid | None:
        targets = self.dataflow_targets(MT_POSITION)
        return next(iter(targets.values()), None)

    # -- sweeping ------------------------------------------------------------
    def sweep(self) -> int:
        """Report every aircraft once; returns the report count."""
        if not self.dataflow_targets(MT_POSITION):
            raise I2OError(f"radar {self.name} is not connected")
        if self.traffic is None:
            raise I2OError(f"radar {self.name} has no traffic picture")
        noise = self.typed_param("noise_km")
        now_ns = self._require_live().clock.now_ns()
        count = 0
        for state in self.traffic.positions():
            nx, ny = self._rng.normal(0.0, noise or 1e-9, size=2)
            self.emit(
                MT_POSITION,
                pack_position(
                    state.aircraft_id, self.radar_id,
                    state.x_km + float(nx), state.y_km + float(ny),
                    state.fl, now_ns,
                ),
            )
            count += 1
        self.sweeps += 1
        self.reports_sent += count
        return count

    def export_counters(self) -> dict[str, object]:
        return {"sweeps": self.sweeps, "reports_sent": self.reports_sent}
