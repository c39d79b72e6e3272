"""Experiment B1 — §6.2: ORB-core overhead versus XDAQ.

The paper: *"the overhead induced by an ORB core is significant (about
90 µsec)"* versus XDAQ's ~9 µs, and pinpoints why: a compliant ORB
must funnel every call through its generic marshalling engine, whereas
XDAQ's architectural support lets applications *loan* pool buffers and
write wire-format data in place ("The IDL to C++ mapping must support
buffer loaning techniques.  The support of these buffer pools should
not remain a private feature...").

Two workloads, both stacks as real Python over equivalent in-process
channels:

* **typed vector** (the headline) — transfer a sequence of 1000
  doubles, the shape of DAQ monitoring/configuration data.  The ORB
  carries it through its CDR ``any`` engine element by element; the
  XDAQ application packs the doubles straight into the loaned frame
  payload.  This is the architectural difference the paper describes,
  and it survives the move to Python.
* **raw byte echo** (reported for honesty) — a tiny opaque payload.
  Here per-call *interpreter* cost dominates both stacks and XDAQ's
  richer machinery (scheduler, queues, routing) makes it the slower
  one in Python — the opposite of the C++ ordering, which
  EXPERIMENTS.md discusses.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.miniorb import MiniOrb, OrbChannel
from repro.bench.pingpong import run_native_pingpong
from repro.bench.report import format_table
from repro.core.device import Listener
from repro.core.executive import Executive
from repro.i2o.frame import Frame
from repro.transports.agent import PeerTransportAgent
from repro.transports.queued import QueuePair, QueueTransport

PAPER_ORB_US = 90.0
PAPER_XDAQ_US = 8.9

XF_SUM_VECTOR = 0x0051


class _VectorServant:
    """ORB side: a typed interface; the ORB marshals the sequence."""

    def sum_vector(self, values: list) -> float:
        return float(sum(values))

    def echo(self, data: bytes) -> bytes:
        return data


class _VectorDevice(Listener):
    """XDAQ side: the application owns the wire format and the loaned
    buffer — doubles are read with one zero-copy frombuffer."""

    device_class = "bench_vector"

    def on_plugin(self) -> None:
        self.bind(XF_SUM_VECTOR, self._on_sum)

    def _on_sum(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        values = np.frombuffer(frame.payload, dtype=np.float64)
        self.reply(frame, struct.pack("<d", float(values.sum())))


class _VectorCaller(Listener):
    device_class = "bench_vector_caller"

    def __init__(self, name: str = "caller") -> None:
        super().__init__(name)
        self.result: float | None = None

    def on_plugin(self) -> None:
        self.bind(XF_SUM_VECTOR, self._on_reply)

    def call(self, target: int, vector: np.ndarray) -> None:
        self.result = None
        exe = self._require_live()
        # Buffer loaning: allocate the frame and write the doubles
        # directly into pool memory.
        frame = exe.frame_alloc(
            vector.nbytes, target=target, initiator=self.tid,
            xfunction=XF_SUM_VECTOR,
        )
        frame.payload[:] = vector.view(np.uint8).reshape(-1).data
        exe.frame_send(frame)

    def _on_reply(self, frame: Frame) -> None:
        if frame.is_reply:
            (self.result,) = struct.unpack("<d", frame.payload)


@dataclass
class OrbResult:
    vector_orb_us: float
    vector_xdaq_us: float
    echo_orb_us: float
    echo_xdaq_us: float

    @property
    def vector_ratio(self) -> float:
        return self.vector_orb_us / self.vector_xdaq_us

    @property
    def echo_ratio(self) -> float:
        return self.echo_orb_us / self.echo_xdaq_us

    def report(self) -> str:
        return format_table(
            ["workload", "mini-ORB us", "XDAQ us", "ratio ORB/XDAQ"],
            [
                ("typed vector (1000 doubles)",
                 f"{self.vector_orb_us:.1f}", f"{self.vector_xdaq_us:.1f}",
                 f"{self.vector_ratio:.1f}x"),
                ("raw 256 B echo",
                 f"{self.echo_orb_us:.1f}", f"{self.echo_xdaq_us:.1f}",
                 f"{self.echo_ratio:.1f}x"),
            ],
            title="B1: ORB marshalling engine vs XDAQ buffer loaning "
            f"(paper: ~{PAPER_ORB_US:.0f} vs {PAPER_XDAQ_US} us, ~10x)",
        )


def _median_call_us(fn, calls: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    samples = np.empty(calls, dtype=np.int64)
    for i in range(calls):
        t0 = time.perf_counter_ns()
        fn()
        samples[i] = time.perf_counter_ns() - t0
    return float(np.median(samples)) / 1000.0


def _build_xdaq_vector_rig():
    exe_a, exe_b = Executive(node=0), Executive(node=1)
    pair = QueuePair(0, 1)
    PeerTransportAgent.attach(exe_a).register(
        QueueTransport(pair, name="q"), default=True
    )
    PeerTransportAgent.attach(exe_b).register(
        QueueTransport(pair, name="q"), default=True
    )
    service_tid = exe_b.install(_VectorDevice())
    caller = _VectorCaller()
    exe_a.install(caller)
    proxy = exe_a.routes.create_proxy(1, service_tid)

    def call(vector: np.ndarray) -> float:
        caller.call(proxy, vector)
        guard = 0
        while caller.result is None:
            exe_a.step()
            exe_b.step()
            guard += 1
            if guard > 10_000:
                raise RuntimeError("vector call stalled")
        return caller.result

    return call


def run_orb(
    vector_len: int = 1000, calls: int = 200, warmup: int = 30
) -> OrbResult:
    vector = np.linspace(0.0, 1.0, vector_len)
    vector_list = [float(v) for v in vector]
    expected = float(vector.sum())

    # -- mini-ORB arms ------------------------------------------------------
    channel = OrbChannel()
    client, server = MiniOrb(channel, 0), MiniOrb(channel, 1)
    client.peer = server
    server.peer = client
    server.register("Vector/1", _VectorServant())
    ref = client.resolve("Vector/1")
    assert abs(ref.sum_vector(vector_list) - expected) < 1e-9
    orb_vector_us = _median_call_us(
        lambda: ref.sum_vector(vector_list), calls, warmup
    )
    blob = bytes(256)
    orb_echo_us = _median_call_us(lambda: ref.echo(blob), calls, warmup)

    # -- XDAQ arms ----------------------------------------------------------
    xdaq_call = _build_xdaq_vector_rig()
    assert abs(xdaq_call(vector) - expected) < 1e-9
    xdaq_vector_us = _median_call_us(lambda: xdaq_call(vector), calls, warmup)
    echo = run_native_pingpong(256, rounds=calls, warmup=warmup)
    xdaq_echo_us = float(np.median(echo.rtts_ns)) / 1000.0

    return OrbResult(
        vector_orb_us=orb_vector_us,
        vector_xdaq_us=xdaq_vector_us,
        echo_orb_us=orb_echo_us,
        echo_xdaq_us=xdaq_echo_us,
    )
