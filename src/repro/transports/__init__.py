"""Peer Transports: the pluggable wire layer.

Paper §4: *"The Peer Transports (PT) perform the actual communication.
They encapsulate all details about a specific transport layer ... we
can use multiple transports to send and receive in parallel ...
Concerning Peer Transports we distinguish two ways of operation.  In
polling mode, the executive periodically scans all registered PTs for
pending data.  In task mode each PT has its own thread of control."*

PTs are themselves device driver modules with TiDs (paper §3.5), which
is why :class:`~repro.transports.base.PeerTransport` subclasses
:class:`~repro.core.device.Listener`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.transports.agent import PeerTransportAgent
    from repro.transports.base import PeerTransport, TransportError
    from repro.transports.faulty import FaultPlan, FaultyLoopbackTransport
    from repro.transports.loopback import LoopbackNetwork, LoopbackTransport
    from repro.transports.queued import QueuePair, QueueTransport
    from repro.transports.simgm import SimGmTransport
    from repro.transports.simpci import SimPciTransport
    from repro.transports.tcp import TcpTransport
    from repro.transports.wire import (
        decode_wire,
        encode_wire,
        encode_wire_into,
        encode_wire_parts,
        read_wire_header,
        recv_into_exact,
    )

__all__ = [
    "FaultPlan",
    "FaultyLoopbackTransport",
    "LoopbackNetwork",
    "LoopbackTransport",
    "PeerTransport",
    "PeerTransportAgent",
    "QueuePair",
    "QueueTransport",
    "SimGmTransport",
    "SimPciTransport",
    "TcpTransport",
    "TransportError",
    "decode_wire",
    "encode_wire",
    "encode_wire_into",
    "encode_wire_parts",
    "read_wire_header",
    "recv_into_exact",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.transports.agent": ("PeerTransportAgent",),
    "repro.transports.base": ("PeerTransport", "TransportError"),
    "repro.transports.faulty": ("FaultPlan", "FaultyLoopbackTransport"),
    "repro.transports.loopback": ("LoopbackNetwork", "LoopbackTransport"),
    "repro.transports.queued": ("QueuePair", "QueueTransport"),
    "repro.transports.simgm": ("SimGmTransport",),
    "repro.transports.simpci": ("SimPciTransport",),
    "repro.transports.tcp": ("TcpTransport",),
    "repro.transports.wire": (
        "decode_wire", "encode_wire", "encode_wire_into", "encode_wire_parts",
        "read_wire_header", "recv_into_exact",
    ),
})
