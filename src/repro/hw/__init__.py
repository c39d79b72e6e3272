"""Hardware substrates: clocks, the Myrinet fabric, GM, PCI segments.

Everything the paper's testbed provided in silicon — Myricom
M2M-PCI64 NICs with LANai 7 processors running the GM message-passing
control program, 33 MHz/32-bit PCI segments, and the hardware message
FIFOs of the PLX IOP 480 board from §7 — is modelled here as
discrete-event processes on :mod:`repro.sim`, per the substitution
rule in DESIGN.md.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.hw.clock import Clock, SimClock, WallClock
    from repro.hw.gm import GmError, GmNic, GmPacket, GmPort
    from repro.hw.myrinet import Fabric, Link, MyrinetParams, Switch
    from repro.hw.pci import HardwareFifo, IopBoard, PciBus, PciParams

__all__ = [
    "Clock",
    "Fabric",
    "GmError",
    "GmNic",
    "GmPacket",
    "GmPort",
    "HardwareFifo",
    "IopBoard",
    "Link",
    "MyrinetParams",
    "PciBus",
    "PciParams",
    "SimClock",
    "Switch",
    "WallClock",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hw.clock": ("Clock", "SimClock", "WallClock"),
    "repro.hw.gm": ("GmError", "GmNic", "GmPacket", "GmPort"),
    "repro.hw.myrinet": ("Fabric", "Link", "MyrinetParams", "Switch"),
    "repro.hw.pci": ("HardwareFifo", "IopBoard", "PciBus", "PciParams"),
})
