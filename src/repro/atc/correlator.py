"""The track correlator: fusion plus conflict detection.

Fuses per-radar position reports into one track per aircraft (mean of
the latest report from each radar) and checks every pair against the
separation minima.  Routine track updates leave at ``UPDATE_PRIORITY``;
separation violations leave as ``XF_CONFLICT_ALERT`` at priority 0, so
however deep the console's queue of routine updates is, the alert is
dispatched first — the real-time path of paper §1, carried entirely by
the I2O scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atc.protocol import (
    MIN_HORIZONTAL_KM,
    MIN_VERTICAL_FL,
    MT_CONFLICT_ALERT,
    MT_POSITION,
    MT_TRACK_UPDATE,
    XF_POSITION,
    pack_alert,
    pack_position,
    unpack_position,
)
from repro.core.device import Listener
from repro.i2o.frame import Frame
from repro.i2o.tid import Tid


@dataclass
class Track:
    """Fused state of one aircraft."""

    aircraft_id: int
    x_km: float = 0.0
    y_km: float = 0.0
    fl: float = 0.0
    #: radar_id -> (x, y, fl) latest report
    reports: dict = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.reports is None:
            self.reports = {}

    def fuse(self) -> None:
        n = len(self.reports)
        self.x_km = sum(r[0] for r in self.reports.values()) / n
        self.y_km = sum(r[1] for r in self.reports.values()) / n
        self.fl = sum(r[2] for r in self.reports.values()) / n


class TrackCorrelator(Listener):
    """Multi-radar fusion and separation monitoring."""

    device_class = "atc_correlator"
    consumes = (MT_POSITION,)
    emits = (MT_TRACK_UPDATE, MT_CONFLICT_ALERT)

    def __init__(self, name: str = "correlator") -> None:
        super().__init__(name)
        self.tracks: dict[int, Track] = {}
        self.reports_received = 0
        self.updates_sent = 0
        self.alerts_sent = 0
        #: (a, b) pairs currently in conflict, to avoid alert storms
        self._active_conflicts: set[tuple[int, int]] = set()

    @property
    def console_tid(self) -> Tid | None:
        targets = self.dataflow_targets(MT_TRACK_UPDATE)
        return next(iter(targets.values()), None)

    def on_plugin(self) -> None:
        self.bind(XF_POSITION, self._on_position)

    def on_reset(self) -> None:
        self.tracks.clear()
        self._active_conflicts.clear()

    # -- report intake -----------------------------------------------------
    def _on_position(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        aircraft, radar, x, y, fl, t_ns = unpack_position(frame.payload)
        self.reports_received += 1
        track = self.tracks.get(aircraft)
        if track is None:
            track = Track(aircraft_id=aircraft)
            self.tracks[aircraft] = track
        track.reports[radar] = (x, y, fl)
        track.fuse()
        self._publish_update(track, t_ns)
        self._check_separation(track)

    def _publish_update(self, track: Track, t_ns: int) -> None:
        if not self.dataflow_targets(MT_TRACK_UPDATE):
            return
        self.emit(
            MT_TRACK_UPDATE,
            pack_position(track.aircraft_id, 0xFFFF, track.x_km,
                          track.y_km, track.fl, t_ns),
        )
        self.updates_sent += 1

    # -- separation monitoring ----------------------------------------------
    def _check_separation(self, track: Track) -> None:
        for other in self.tracks.values():
            if other.aircraft_id == track.aircraft_id:
                continue
            horizontal = (
                (track.x_km - other.x_km) ** 2
                + (track.y_km - other.y_km) ** 2
            ) ** 0.5
            vertical = abs(track.fl - other.fl)
            pair = (min(track.aircraft_id, other.aircraft_id),
                    max(track.aircraft_id, other.aircraft_id))
            in_conflict = (
                horizontal < MIN_HORIZONTAL_KM and vertical < MIN_VERTICAL_FL
            )
            if in_conflict and pair not in self._active_conflicts:
                self._active_conflicts.add(pair)
                self._raise_alert(pair, horizontal, vertical)
            elif not in_conflict:
                self._active_conflicts.discard(pair)

    def _raise_alert(self, pair: tuple[int, int], horizontal: float,
                     vertical: float) -> None:
        if not self.dataflow_targets(MT_CONFLICT_ALERT):
            return
        # MT_CONFLICT_ALERT is declared at ALERT_PRIORITY — the
        # real-time path rides on the type, not on call sites.
        self.emit(
            MT_CONFLICT_ALERT,
            pack_alert(pair[0], pair[1], horizontal, vertical),
        )
        self.alerts_sent += 1

    def export_counters(self) -> dict[str, object]:
        return {
            "reports_received": self.reports_received,
            "updates_sent": self.updates_sent,
            "alerts_sent": self.alerts_sent,
            "tracks": len(self.tracks),
            "active_conflicts": len(self._active_conflicts),
        }
