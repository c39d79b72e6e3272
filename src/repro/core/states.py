"""Device and executive operational states, and peer liveness states.

Paper §2 (system management requirement): configuration "has to include
the configuration and operational modes of the system in its scope".
The reproduction uses the XDAQ-style finite state machine; transitions
are driven exclusively by I2O executive messages (paper §3.5: every
device "has to implement the standard executive and utility message
handlers to be configurable and controllable").

Every executive also holds a :class:`PeerTable`, the ALIVE → SUSPECT →
DEAD bookkeeping that a :class:`~repro.core.liveness.HeartbeatService`
feeds; it lives here so a node without supervision never loads that
service.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.i2o.errors import I2OError


class StateError(I2OError):
    """Illegal state transition requested."""


class DeviceState(enum.Enum):
    """Operational states shared by devices and the executive."""

    INITIALISED = "initialised"  # plugged in, not yet configured
    CONFIGURED = "configured"  # parameters applied
    ENABLED = "enabled"  # processing application messages
    QUIESCED = "quiesced"  # drained, only control messages handled
    FAILED = "failed"  # quarantined (e.g. by the watchdog)
    HALTED = "halted"  # removed from service


class PeerState(enum.Enum):
    """Liveness states a node assigns to its peers (supervision layer).

    A peer starts ALIVE, degrades to SUSPECT after consecutive missed
    heartbeats, and to DEAD after further misses (triggering failover).
    A DEAD peer must deliver several consecutive heartbeats before it
    is readmitted — the backoff that keeps a flapping node from
    thrashing the failover machinery.
    """

    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


#: Legal transitions; anything else raises :class:`StateError`.
_TRANSITIONS: dict[DeviceState, frozenset[DeviceState]] = {
    DeviceState.INITIALISED: frozenset(
        {DeviceState.CONFIGURED, DeviceState.ENABLED, DeviceState.HALTED,
         DeviceState.FAILED}
    ),
    DeviceState.CONFIGURED: frozenset(
        {DeviceState.CONFIGURED, DeviceState.ENABLED, DeviceState.HALTED,
         DeviceState.FAILED}
    ),
    DeviceState.ENABLED: frozenset(
        {DeviceState.QUIESCED, DeviceState.HALTED, DeviceState.FAILED}
    ),
    DeviceState.QUIESCED: frozenset(
        {DeviceState.ENABLED, DeviceState.CONFIGURED, DeviceState.HALTED,
         DeviceState.FAILED}
    ),
    DeviceState.FAILED: frozenset({DeviceState.HALTED}),
    DeviceState.HALTED: frozenset(),
}


def check_transition(current: DeviceState, target: DeviceState) -> DeviceState:
    """Validate ``current -> target``; returns ``target`` for chaining."""
    if target not in _TRANSITIONS[current]:
        raise StateError(f"illegal transition {current.value} -> {target.value}")
    return target


PeerCallback = Callable[[int], None]


@dataclass
class PeerHealth:
    """One peer's liveness bookkeeping."""

    state: PeerState = PeerState.ALIVE
    misses: int = 0  # consecutive intervals without a beat
    rejoin_hits: int = 0  # consecutive beats while DEAD
    deaths: int = 0


@dataclass
class PeerTable:
    """ALIVE → SUSPECT → DEAD tracking for every watched peer.

    ``suspect_after`` and ``dead_after`` are *total* consecutive miss
    counts (``dead_after`` must exceed ``suspect_after``); a DEAD peer
    needs ``rejoin_after`` consecutive beats — any further miss resets
    the count — before it is readmitted as ALIVE.
    """

    suspect_after: int = 2
    dead_after: int = 4
    rejoin_after: int = 3
    _peers: dict[int, PeerHealth] = field(default_factory=dict)
    _on_dead: list[PeerCallback] = field(default_factory=list)
    _on_alive: list[PeerCallback] = field(default_factory=list)
    _on_suspect: list[PeerCallback] = field(default_factory=list)
    deaths: int = 0
    rejoins: int = 0
    suspicions: int = 0

    def configure(
        self,
        *,
        suspect_after: int | None = None,
        dead_after: int | None = None,
        rejoin_after: int | None = None,
    ) -> None:
        if suspect_after is not None:
            self.suspect_after = suspect_after
        if dead_after is not None:
            self.dead_after = dead_after
        if rejoin_after is not None:
            self.rejoin_after = rejoin_after
        if self.suspect_after < 1 or self.rejoin_after < 1:
            raise I2OError("liveness thresholds must be >= 1")
        if self.dead_after <= self.suspect_after:
            raise I2OError(
                f"dead_after ({self.dead_after}) must exceed "
                f"suspect_after ({self.suspect_after})"
            )

    # -- membership --------------------------------------------------------
    def watch(self, node: int) -> PeerHealth:
        """Start tracking ``node`` (idempotent); peers begin ALIVE."""
        return self._peers.setdefault(node, PeerHealth())

    def nodes(self) -> list[int]:
        return sorted(self._peers)

    def state(self, node: int) -> PeerState:
        peer = self._peers.get(node)
        if peer is None:
            raise I2OError(f"node {node} is not watched")
        return peer.state

    def dead_nodes(self) -> list[int]:
        return sorted(
            node for node, p in self._peers.items()
            if p.state is PeerState.DEAD
        )

    # -- observer registration --------------------------------------------
    def on_dead(self, callback: PeerCallback) -> None:
        self._on_dead.append(callback)

    def on_alive(self, callback: PeerCallback) -> None:
        """Fires on *rejoin* only, not on the initial watch."""
        self._on_alive.append(callback)

    def on_suspect(self, callback: PeerCallback) -> None:
        self._on_suspect.append(callback)

    def unsubscribe(self, callback: PeerCallback) -> None:
        """Undo every ``on_*`` registration of ``callback``."""
        for callbacks in (self._on_dead, self._on_alive, self._on_suspect):
            while callback in callbacks:
                callbacks.remove(callback)

    # -- evidence ----------------------------------------------------------
    def heartbeat_seen(self, node: int) -> None:
        """A beat from ``node`` arrived."""
        peer = self.watch(node)
        peer.misses = 0
        if peer.state is PeerState.DEAD:
            peer.rejoin_hits += 1
            if peer.rejoin_hits >= self.rejoin_after:
                peer.state = PeerState.ALIVE
                peer.rejoin_hits = 0
                self.rejoins += 1
                for callback in self._on_alive:
                    callback(node)
        elif peer.state is PeerState.SUSPECT:
            peer.state = PeerState.ALIVE

    def interval_missed(self, node: int) -> PeerState:
        """One beat interval elapsed without a beat from ``node``."""
        peer = self.watch(node)
        peer.misses += 1
        peer.rejoin_hits = 0  # a miss resets the rejoin backoff
        if peer.state is PeerState.ALIVE and peer.misses >= self.suspect_after:
            peer.state = PeerState.SUSPECT
            self.suspicions += 1
            for callback in self._on_suspect:
                callback(node)
        if peer.state is PeerState.SUSPECT and peer.misses >= self.dead_after:
            peer.state = PeerState.DEAD
            peer.deaths += 1
            self.deaths += 1
            for callback in self._on_dead:
                callback(node)
        return peer.state

    def export_counters(self) -> dict[str, object]:
        return {
            "watched": len(self._peers),
            "alive": sum(
                p.state is PeerState.ALIVE for p in self._peers.values()
            ),
            "suspect": sum(
                p.state is PeerState.SUSPECT for p in self._peers.values()
            ),
            "dead": sum(
                p.state is PeerState.DEAD for p in self._peers.values()
            ),
            "deaths": self.deaths,
            "rejoins": self.rejoins,
            "suspicions": self.suspicions,
        }
