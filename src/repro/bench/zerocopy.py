"""Ablation A2 — the zero-copy design choice (DESIGN.md §5.2).

Paper §4: *"All communication employs a zero-copy scheme as the message
buffers are taken from the executive's memory pool"*; §6.2 demands
"buffer loaning techniques" from competitive middleware.

Measured with real Python: moving a payload through the framework's
send path with buffer loaning (write once into the loaned frame) versus
a deliberately conventional pipeline that copies at each layer boundary
(application buffer → message body → wire buffer), as a non-loaning
stack must.  The gap widens with payload size — the architectural
argument in one number.  (Copies on the *delivery* path are counted by
the transports themselves and held to exact budgets by
``tests/transports/test_conformance.py::test_copy_budget``.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.bench.report import format_table
from repro.core.executive import Executive
from repro.i2o.frame import Frame
from repro.i2o.tid import EXECUTIVE_TID, PTA_TID

#: 192 KB is a jumbo event fragment, near the 256 KB block maximum.
DEFAULT_PAYLOADS = (64, 4096, 196608)

#: Every copy a DAQ fragment's payload takes from front-end memory to
#: the builder, read off ``daq/readout.py`` and ``daq/builder.py``.
#: (Before PR 22 there were four: ``tobytes`` out of the generator, the
#: header+CRC concat, into the reply frame, ``bytes()`` at the builder.)
DAQ_FRAGMENT_COPIES = ("arena -> reply frame", "reply frame -> builder")


def loaned_send_path(exe: Executive, payload: bytes) -> int:
    """Zero-copy: one write into pool memory, header set in place."""
    frame = exe.frame_alloc(
        len(payload), target=PTA_TID, initiator=EXECUTIVE_TID
    )
    frame.payload[:] = payload  # the single, C-speed copy
    total = frame.total_size
    exe.frame_free(frame)
    return total


def copying_send_path(payload: bytes) -> int:
    """The conventional pipeline: app buffer -> message -> wire."""
    message_body = bytes(payload)  # copy 1: into the message object
    frame = Frame.build(
        target=PTA_TID, initiator=EXECUTIVE_TID, payload=message_body
    )
    wire = frame.tobytes()  # copy 2: into the wire buffer
    staging = bytearray(wire)  # copy 3: the transport's own buffer
    return len(staging)


def _median_ns(fn, *args, repeats: int) -> float:
    samples = np.empty(repeats, dtype=np.int64)
    for i in range(repeats):
        t0 = time.perf_counter_ns()
        fn(*args)
        samples[i] = time.perf_counter_ns() - t0
    return float(np.median(samples))


@dataclass
class ZeroCopyResult:
    payloads: list[int] = field(default_factory=list)
    loaned_ns: list[float] = field(default_factory=list)
    copying_ns: list[float] = field(default_factory=list)

    @property
    def ratios(self) -> list[float]:
        """Copy chain cost over buffer loaning cost, per payload."""
        return [c / l for c, l in zip(self.copying_ns, self.loaned_ns)]

    def report(self) -> str:
        rows = [
            (p, f"{l:.0f}", f"{c:.0f}", f"{r:.2f}x")
            for p, l, c, r in zip(
                self.payloads, self.loaned_ns, self.copying_ns, self.ratios
            )
        ]
        return format_table(
            ["payload B", "buffer loaning ns", "copy chain ns", "ratio"],
            rows,
            title="A2: the zero-copy design choice, real Python "
            "(send path, ns/message median)",
        ) + "\nDAQ fragment: payload copies RU->BU: {} ({})".format(
            len(DAQ_FRAGMENT_COPIES), ", ".join(DAQ_FRAGMENT_COPIES)
        )


def run_zerocopy(
    payloads: tuple[int, ...] = DEFAULT_PAYLOADS, repeats: int = 300
) -> ZeroCopyResult:
    exe = Executive(node=0)
    result = ZeroCopyResult()
    for size in payloads:
        payload = bytes(size)
        result.payloads.append(size)
        result.loaned_ns.append(
            _median_ns(loaned_send_path, exe, payload, repeats=repeats)
        )
        result.copying_ns.append(
            _median_ns(copying_send_path, payload, repeats=repeats)
        )
    return result
