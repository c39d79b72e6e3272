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

# benchmarks/trajectory imports these names from the package.
from repro.transports.agent import PeerTransportAgent as PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork as LoopbackNetwork
from repro.transports.loopback import LoopbackTransport as LoopbackTransport
from repro.transports.queued import QueuePair as QueuePair
from repro.transports.queued import QueueTransport as QueueTransport
from repro.transports.tcp import TcpTransport as TcpTransport
from repro.transports.wire import decode_wire as decode_wire
from repro.transports.wire import encode_wire as encode_wire
from repro.transports.wire import encode_wire_parts as encode_wire_parts
