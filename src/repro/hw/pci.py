"""PCI segment, hardware message FIFOs and the IOP board of paper §7.

Paper §3.1: *"This layer contains two queues ... The inbound queue
buffers messages that originate from the host and the device modules
post replies to the outbound queue.  For efficiency reasons these
queues are implemented in hardware in I2O supporting computer
architectures."*  And §7: *"members of our team designed a PLX IOP 480
based processor board ... The board gives I2O support through hardware
FIFOs, which will allow us to provide communication efficiency
measurements with and without hardware support."*

This module models exactly that ongoing-work experiment (bench X3):

* :class:`PciBus` — a 33 MHz/32-bit shared bus: arbitration latency
  plus 4 bytes per cycle, serialised across all bus masters;
* :class:`HardwareFifo` — a message FIFO with constant-time post/fetch
  when implemented "in hardware", versus a software-managed queue that
  charges the host CPU a per-message management cost;
* :class:`IopBoard` — an I/O processor board on the bus hosting its
  own executive node (the paper's IOP 480 with VxWorks).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.i2o.errors import I2OError
from repro.sim.kernel import Simulator


#: Entries per FIFO of the IOP board's inbound/outbound pair.
FIFO_DEPTH = 128


class PciError(I2OError):
    """Bus/FIFO misuse."""


@dataclass(frozen=True)
class PciParams:
    """33 MHz / 32-bit PCI (the paper's host bus)."""

    clock_hz: int = 33_000_000
    width_bytes: int = 4
    arbitration_ns: int = 400  # bus grant + address phase
    burst_size: int = 64  # bytes per burst before re-arbitration
    #: hardware FIFO doorbell: one register write
    hw_fifo_post_ns: int = 120
    #: software queue management on the host CPU per message
    sw_queue_post_ns: int = 2_600
    sw_queue_fetch_ns: int = 2_200

    @property
    def ns_per_byte(self) -> float:
        return 1e9 / (self.clock_hz * self.width_bytes)


class PciBus:
    """A shared bus: transfers serialise; each burst re-arbitrates."""

    def __init__(self, sim: Simulator, params: PciParams | None = None) -> None:
        self.sim = sim
        self.params = params if params is not None else PciParams()
        self._free_at = 0
        self.transfers = 0
        self.bytes_moved = 0

    def transfer_time_ns(self, size_bytes: int) -> int:
        """Uncontended time to move ``size_bytes`` across the bus."""
        p = self.params
        bursts = max(1, -(-size_bytes // p.burst_size))
        return int(bursts * p.arbitration_ns + size_bytes * p.ns_per_byte)

    def transfer(self, size_bytes: int, on_done: Callable[[int], None]) -> int:
        """Schedule a DMA of ``size_bytes``; ``on_done(t)`` fires at
        completion.  Returns the completion time (ns)."""
        if size_bytes < 0:
            raise PciError(f"negative transfer size {size_bytes}")
        start = max(self.sim.now, self._free_at)
        done = start + self.transfer_time_ns(size_bytes)
        self._free_at = done
        self.transfers += 1
        self.bytes_moved += size_bytes
        self.sim.at(done, lambda: on_done(done))
        return done


class HardwareFifo:
    """The messaging-instance queue pair, hardware- or software-backed.

    The *contents* are Python objects (frames); what differs between
    the two modes is the CPU cost charged per post/fetch, which is what
    the paper's with/without-hardware measurement isolates.
    """

    def __init__(
        self,
        params: PciParams,
        *,
        hardware: bool,
        depth: int = FIFO_DEPTH,
        name: str = "fifo",
    ) -> None:
        if depth < 1:
            raise PciError(f"depth must be >= 1, got {depth}")
        self.params = params
        self.hardware = hardware
        self.depth = depth
        self.name = name
        self._items: deque[object] = deque()
        self.posts = 0
        self.full_rejects = 0

    def post_cost_ns(self) -> int:
        return (
            self.params.hw_fifo_post_ns
            if self.hardware
            else self.params.sw_queue_post_ns
        )

    def fetch_cost_ns(self) -> int:
        return (
            self.params.hw_fifo_post_ns
            if self.hardware
            else self.params.sw_queue_fetch_ns
        )

    def post(self, item: object) -> bool:
        """Append; False (and a reject count) when the FIFO is full —
        hardware FIFOs back-pressure rather than grow."""
        if len(self._items) >= self.depth:
            self.full_rejects += 1
            return False
        self._items.append(item)
        self.posts += 1
        return True

    def fetch(self) -> object | None:
        if not self._items:
            return None
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)


class IopBoard:
    """An I/O processor board on a PCI segment.

    Pairs two FIFOs (host→IOP inbound, IOP→host outbound, paper
    figure 2) over a shared :class:`PciBus`.  The
    :class:`repro.transports.simpci.SimPciTransport` moves I2O frames
    across it; ``hardware_fifos`` selects the §7 experiment arm.
    """

    def __init__(
        self,
        sim: Simulator,
        bus: PciBus,
        *,
        hardware_fifos: bool = True,
        name: str = "iop480",
    ) -> None:
        self.sim = sim
        self.bus = bus
        self.name = name
        self.hardware_fifos = hardware_fifos
        self.inbound = HardwareFifo(
            bus.params, hardware=hardware_fifos, name=f"{name}.inbound"
        )
        self.outbound = HardwareFifo(
            bus.params, hardware=hardware_fifos, name=f"{name}.outbound"
        )
