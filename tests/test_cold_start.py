"""Cold start: what a native node loads.

A section-less two-node ``loopback`` boot and one round trip run in a
fresh interpreter, which then reports every ``repro`` module and
whether NumPy is loaded; so does a 2 x 2 event builder that builds 8
events.  The native plane must not reach the
simulation plane (``repro.sim``, the hardware models, the simulated
transports, ``SimNode``) or NumPy, and ``bootstrap`` must not import
the subsystem of a section the spec does not name.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json
import sys

from repro.config.bootstrap import bootstrap
from repro.core.device import Listener


class Echo(Listener):
    def on_plugin(self):
        self.bind(0x1, self.on_ping)

    def on_ping(self, frame):
        if frame.is_reply:
            self.replies.append(bytes(frame.payload))
        else:
            self.reply(frame, bytes(frame.payload))


cluster = bootstrap({"transport": "loopback",
                     "nodes": {0: {"devices": []}, 1: {"devices": []}}})
server, client = Echo("server"), Echo("client")
client.replies = []
cluster.install(1, server)
cluster.install(0, client)
client.send(cluster.proxy(0, "server"), b"ping", xfunction=0x1)
cluster.pump()
loaded = sorted(name for name in sys.modules
                if name == "numpy" or name.startswith(("numpy.", "repro")))
print(json.dumps({"replies": [r.decode() for r in client.replies],
                  "loaded": loaded}))
"""

#: what a section-less native boot must not load: the simulation
#: plane, NumPy, and the subsystems of the sections it did not name
FORBIDDEN = (
    "numpy", "repro.sim", "repro.hw.gm", "repro.hw.myrinet", "repro.hw.pci",
    "repro.transports.simgm", "repro.transports.simpci",
    "repro.core.simnode", "repro.core.liveness", "repro.core.telemetry",
    "repro.dataflow.wiring",
)


EVB_CHILD = """
import json
import sys

from repro.config.bootstrap import bootstrap
from repro.dataflow.examples import event_builder_spec

cluster = bootstrap(event_builder_spec(2, 2))
fired = cluster.device("trigger").fire_burst(8)
cluster.pump()
loaded = sorted(name for name in sys.modules
                if name == "numpy" or name.startswith(("numpy.", "repro")))
print(json.dumps({"fired": len(fired),
                  "built": sum(cluster.device(f"bu{i}").built for i in range(2)),
                  "loaded": loaded}))
"""


def _run_child(source: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", source],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _leaked(loaded: list[str], forbidden: tuple[str, ...]) -> list[str]:
    return [
        name for name in loaded
        if any(name == bad or name.startswith(bad + ".") for bad in forbidden)
    ]


@pytest.fixture(scope="module")
def cold_boot() -> dict:
    return _run_child(CHILD)


def test_native_boot_loads_no_sim_plane_numpy_or_unnamed_section(cold_boot):
    assert cold_boot["replies"] == ["ping"]
    assert _leaked(cold_boot["loaded"], FORBIDDEN) == []


def test_event_builder_boot_loads_no_sim_plane_or_numpy():
    """Fragment sizes are drawn without NumPy, so the event builder
    boots like any native node; its spec names ``dataflow``, so the
    wiring module is the one expected extra."""
    evb = _run_child(EVB_CHILD)
    assert evb["fired"] == evb["built"] == 8
    expected = ("repro.dataflow.wiring",)
    forbidden = tuple(bad for bad in FORBIDDEN if bad not in expected)
    assert _leaked(evb["loaded"], forbidden) == []
    assert "repro.dataflow.wiring" in evb["loaded"]
