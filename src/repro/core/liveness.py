"""Cluster supervision: heartbeat liveness, peer tables, failover.

The paper's domain (§1: air-traffic control, physics DAQ) makes node
death a first-class event, yet the architecture it describes only
bounds *local* misbehaviour (watchdog quarantine).  This module adds
the missing cluster dimension with nothing but the framework's own
vocabulary:

* liveness beacons are ordinary private frames (``XF_HB_BEAT`` in the
  reserved 0xF0xx framework space);
* the beat cadence rides the **I2O timer facility** — expirations
  arrive as frames through the same queues (paper §3.2), so
  supervision obeys the same scheduling and probing as every other
  message;
* failover is expressed through the executive's route table
  (:meth:`~repro.core.routes.RouteTable.fail_node`): proxy TiDs of a
  DEAD node are re-bound to a surviving replica or *parked* so that
  senders get the paper's default-handler failure reply.

The division of labour:

:class:`~repro.core.states.PeerTable`
    Pure bookkeeping: per-peer ALIVE → SUSPECT → DEAD state machine
    with configurable miss thresholds and a consecutive-beat rejoin
    backoff.  One table lives on every :class:`Executive` (so it is
    defined in :mod:`repro.core.states`, which every node loads).

:class:`HeartbeatService`
    The device that feeds the table: sends beats to the peers it
    monitors, counts the silence in between, and on a DEAD verdict
    runs the failover cascade — the route table re-binds (to the
    replicas a :class:`DiscoveryService` picks) or parks the routes,
    then every local device exposing an
    ``on_peer_dead(node)`` hook is upcalled (ascending TiD order) so
    reliable endpoints abort retransmission and DAQ devices degrade
    gracefully.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any

from repro.config.schema import ParamSchema, ParamSpec, SchemaListenerMixin
from repro.core.device import Listener
from repro.core.discovery import DiscoveryService
from repro.core.states import PeerTable
from repro.i2o.errors import I2OError
from repro.i2o.frame import Frame
from repro.i2o.tid import Tid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config.bootstrap import Cluster
    from repro.core.routes import ReplicaPick

#: Liveness beacon, one-way (0xF0xx is reserved framework space).
XF_HB_BEAT = 0xF010

_NODE = struct.Struct("<I")

class HeartbeatService(SchemaListenerMixin, Listener):
    """Periodic liveness beacons plus the failover cascade.

    Every monitored peer is sent an ``XF_HB_BEAT`` each interval; the
    intervals in which a monitored peer stayed silent are charged to
    the executive's :class:`PeerTable`.  When the table declares a peer
    DEAD, the cascade runs on this node:

    1. the executive's route table re-binds the dead node's proxy
       routes to surviving replicas of the same device class, as the
       attached :class:`DiscoveryService` picks them, or parks them
       (policy ``rebind`` | ``park``; without a discovery service every
       route parks) — except the beat routes, the rejoin probes;
    2. every other local device exposing ``on_peer_dead(node)`` is
       upcalled in ascending TiD order (install order therefore fixes
       the cascade order).

    Rejoin runs the same cascade through ``on_peer_alive``.
    """

    device_class = "heartbeat"
    metric_kind = ""

    #: the device parameters, and the bootstrap ``supervision`` section's
    #: keys (:func:`install_supervision`)
    schema = ParamSchema([
        ParamSpec("interval_ns", int, default=1_000_000, minimum=1,
                  description="beat period"),
        ParamSpec("suspect_after", int, default=2, minimum=1,
                  description="consecutive misses before SUSPECT"),
        ParamSpec("dead_after", int, default=4, minimum=2,
                  description="consecutive misses before DEAD"),
        ParamSpec("rejoin_after", int, default=3, minimum=1,
                  description="consecutive beats a DEAD peer needs back"),
        ParamSpec("failover_policy", str, default="rebind",
                  choices=("rebind", "park", "none"),
                  description="what to do with a dead peer's routes"),
    ])

    def __init__(
        self,
        name: str = "heartbeat",
        *,
        discovery: DiscoveryService | None = None,
    ) -> None:
        super().__init__(name)
        #: optional DiscoveryService: replica choice and quarantine
        self.discovery = discovery
        self._targets: dict[int, Tid] = {}  # node -> beat proxy TiD
        self._seen_since_tick: set[int] = set()
        self._timer_id: int | None = None
        self.running = False
        self.beats_sent = 0
        self.beats_received = 0
        self.peer_deaths = 0
        self.peer_rejoins = 0

    # -- wiring ------------------------------------------------------------
    def on_plugin(self) -> None:
        self.bind(XF_HB_BEAT, self._on_beat)
        exe = self._require_live()
        exe.peers.on_dead(self._peer_dead)
        exe.peers.on_alive(self._peer_alive)

    def on_unplug(self) -> None:
        # The beat timer rides through a re-plug; the peer-table
        # subscriptions are made again by on_plugin.
        self.peers.unsubscribe(self._peer_dead)
        self.peers.unsubscribe(self._peer_alive)

    @property
    def peers(self) -> PeerTable:
        return self._require_live().peers

    def monitor(self, node: int, beat_target: Tid) -> None:
        """Beat to (and expect beats from) the peer ``node``, whose
        HeartbeatService is reachable at the proxy ``beat_target``."""
        exe = self._require_live()
        if node == exe.node:
            raise I2OError("a node does not monitor itself")
        self._targets[node] = beat_target
        exe.peers.watch(node)

    # -- operation ---------------------------------------------------------
    def start(self) -> None:
        """Apply thresholds and begin beating; idempotent."""
        exe = self._require_live()
        exe.peers.configure(
            suspect_after=self.typed_param("suspect_after"),
            dead_after=self.typed_param("dead_after"),
            rejoin_after=self.typed_param("rejoin_after"),
        )
        self.typed_param("failover_policy")  # reject typos now, not at death
        if self.running:
            return
        self.running = True
        self._send_beats()
        self._timer_id = self.start_timer(self.typed_param("interval_ns"))

    def stop(self) -> None:
        self.running = False
        if self._timer_id is not None:
            self.cancel_timer(self._timer_id)
            self._timer_id = None

    def on_enable(self) -> None:
        self.start()

    def on_quiesce(self) -> None:
        self.stop()

    def on_timer(self, context: int, frame: Frame) -> None:
        if not self.running:
            return
        exe = self._require_live()
        for node in sorted(self._targets):
            if node not in self._seen_since_tick:
                exe.peers.interval_missed(node)
        self._seen_since_tick.clear()
        self._send_beats()
        self._timer_id = self.start_timer(self.typed_param("interval_ns"))

    def _send_beats(self) -> None:
        exe = self._require_live()
        payload = _NODE.pack(exe.node)
        for node in sorted(self._targets):
            self.send(self._targets[node], payload, xfunction=XF_HB_BEAT)
            self.beats_sent += 1

    def _on_beat(self, frame: Frame) -> None:
        if frame.is_reply:
            return  # a parked route's failure reply; the miss count rules
        if frame.payload_size < _NODE.size:
            return
        (node,) = _NODE.unpack_from(frame.payload, 0)
        self.beats_received += 1
        self._require_live().peers.heartbeat_seen(node)
        self._seen_since_tick.add(node)

    # -- the failover cascade ---------------------------------------------
    def _peer_dead(self, node: int) -> None:
        self.peer_deaths += 1
        policy = self.typed_param("failover_policy")
        if policy == "none":
            return
        pick: "ReplicaPick | None" = None
        if self.discovery is not None:
            self.discovery.quarantined.add(node)
            if policy == "rebind":
                pick = self.discovery.replica_for
        # The beat routes are spared: they carry the rejoin probes.
        self._require_live().routes.fail_node(
            node, pick, spare=self._targets.values())
        self._cascade("on_peer_dead", node)

    def _peer_alive(self, node: int) -> None:
        self.peer_rejoins += 1
        if self.typed_param("failover_policy") == "none":
            return
        if self.discovery is not None:
            self.discovery.quarantined.discard(node)
        self._require_live().routes.readmit(node)
        self._cascade("on_peer_alive", node)

    def _cascade(self, hook_name: str, node: int) -> None:
        devices = self._require_live().devices()
        for tid in sorted(devices):
            device = devices[tid]
            if device is self or device is self.discovery:
                continue
            hook = getattr(device, hook_name, None)
            if callable(hook):
                hook(node)

    def export_counters(self) -> dict[str, object]:
        exe = self.executive
        counters: dict[str, object] = {
            "hb_beats_sent_total": self.beats_sent,
            "hb_beats_received_total": self.beats_received,
            "peer_deaths_total": self.peer_deaths,
            "peer_rejoins_total": self.peer_rejoins,
        }
        if exe is not None:
            counters.update(
                {f"peers_{k}": v for k, v in exe.peers.export_counters().items()}
            )
        return counters


def install_supervision(
    cluster: "Cluster", options: dict[str, Any], nodes: list[int]
) -> None:
    """The bootstrap ``supervision`` section: a full mesh of
    HeartbeatServices (every node beats to and watches every other),
    each taking the section's options as its parameters.  Unless the
    policy is ``none``, a node's DiscoveryService picks its replicas.
    ``nodes`` get a service watching every peer; a peer's own service
    keeps its proxy, which the rejoined service's TiD still answers."""
    params = {key: str(value) for key, value in options.items()}
    for node in nodes:
        exe = cluster.executives[node]
        discovery = next(
            (dev for dev in exe.devices().values()
             if isinstance(dev, DiscoveryService)),
            None,
        ) if options["failover_policy"] != "none" else None
        hb = HeartbeatService(name=f"heartbeat{node}", discovery=discovery)
        hb.parameters.update(params)
        cluster.install(node, hb)
        cluster.heartbeats[node] = hb
    for node in nodes:
        for peer in sorted(cluster.executives):
            if peer != node:
                cluster.heartbeats[node].monitor(
                    peer, cluster.proxy(node, cluster.heartbeats[peer].name)
                )
