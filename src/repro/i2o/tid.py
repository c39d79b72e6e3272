"""Target-ID (TiD) addressing.

Paper §3.4: *"I2O challenges the Babylonic confusion by replacing all
addressing with a unique destination identification scheme ... each
device instance, software or hardware module gets assigned a numeric
identifier, the TiD.  It is unique within one I/O processor card."*

A TiD is a 12-bit number (0..4095) unique **per executive**.  Remote
devices are reached through locally allocated *proxy* TiDs; resolving a
proxy to its ``(node, remote_tid)`` pair is the job of the route table
in :mod:`repro.core.routes`, not of this module — here we only keep
allocation honest.

Well-known values follow the I2O convention that the low range is
reserved for infrastructure:

====================  =====  ==============================================
``EXECUTIVE_TID``     0      the executive itself (IOP TID 0 in the spec)
``PTA_TID``           1      the Peer Transport Agent (host TID 1 slot)
``TID_BROADCAST``     4095   all local devices (used by system enable/halt)
====================  =====  ==============================================

Dynamic allocation starts at ``FIRST_DYNAMIC_TID`` = 16, leaving room
for future well-known services.
"""

from __future__ import annotations

from repro.i2o.errors import AddressingError

Tid = int

MAX_TID: Tid = 0xFFF
EXECUTIVE_TID: Tid = 0
PTA_TID: Tid = 1
TID_BROADCAST: Tid = MAX_TID
FIRST_DYNAMIC_TID: Tid = 16
#: Node ids share the TiD width: a trace id keeps 12 bits of its root
#: node (:mod:`repro.core.tracing`), so a wider id would alias node 0.
MAX_NODE = 0xFFF


def check_tid(tid: int) -> Tid:
    """Validate ``tid`` as a 12-bit unicast TiD; returns it for chaining."""
    if not isinstance(tid, int) or isinstance(tid, bool):
        raise AddressingError(f"TiD must be an int, got {type(tid).__name__}")
    if not 0 <= tid <= MAX_TID:
        raise AddressingError(f"TiD {tid} out of range 0..{MAX_TID}")
    if tid == TID_BROADCAST:
        raise AddressingError("broadcast TiD not valid here")
    return tid


def check_node(node: int) -> int:
    """Validate ``node`` as a node id in 0..MAX_NODE; returns it for chaining."""
    if isinstance(node, bool) or not isinstance(node, int) \
            or not 0 <= node <= MAX_NODE:
        raise AddressingError(
            f"node id must be an int in 0..{MAX_NODE}, got {node!r}")
    return node


class TidAllocator:
    """Allocates locally unique TiDs and recycles released ones.

    Released TiDs go to a free list and are reused LIFO; the allocator
    never hands out a TiD that is currently live (property-tested).
    """

    def __init__(self, first: Tid = FIRST_DYNAMIC_TID) -> None:
        if not FIRST_DYNAMIC_TID <= first <= MAX_TID:
            raise AddressingError(f"first dynamic TiD {first} out of range")
        self._next = first
        self._free: list[Tid] = []
        self._live: set[Tid] = set()

    @property
    def live(self) -> frozenset[Tid]:
        return frozenset(self._live)

    def allocate(self) -> Tid:
        if self._free:
            tid = self._free.pop()
        else:
            if self._next >= TID_BROADCAST:
                raise AddressingError("TiD space exhausted")
            tid = self._next
            self._next += 1
        self._live.add(tid)
        return tid

    def release(self, tid: Tid) -> None:
        if tid not in self._live:
            raise AddressingError(f"TiD {tid} is not live")
        self._live.remove(tid)
        self._free.append(tid)

    def reserve(self, tid: Tid) -> Tid:
        """Claim a specific TiD (used for well-known infrastructure slots)."""
        check_tid(tid)
        if tid in self._live:
            raise AddressingError(f"TiD {tid} already live")
        if tid >= self._next and tid not in self._free:
            # Burn the gap so dynamic allocation never collides.
            for gap in range(self._next, tid):
                self._free.append(gap)
            self._next = tid + 1
        elif tid in self._free:
            self._free.remove(tid)
        elif tid >= FIRST_DYNAMIC_TID:
            raise AddressingError(f"TiD {tid} was already allocated")
        self._live.add(tid)
        return tid
