"""Hardware substrates: clocks, the Myrinet fabric, GM, PCI segments.

Everything the paper's testbed provided in silicon — Myricom
M2M-PCI64 NICs with LANai 7 processors running the GM message-passing
control program, 33 MHz/32-bit PCI segments, and the hardware message
FIFOs of the PLX IOP 480 board from §7 — is modelled here as
discrete-event processes on :mod:`repro.sim`, per the substitution
rule in DESIGN.md.
"""
