#!/usr/bin/env python
"""RMI-style adapters (paper §4): typed remote calls over frames.

A calculator service is exported as a :class:`RemoteObject`; the
client calls it through a :class:`Stub` with plain attribute syntax.
Underneath it is all standard I2O frames — the stub marshals call
parameters into a private message, the skeleton unmarshals and replies
— so RMI traffic coexists with raw frame traffic on the same
executives and transports.

Run: ``python examples/rmi_calculator.py``
"""

from repro.core.executive import Executive
from repro.rmi.skeleton import RemoteObject, remote
from repro.rmi.stub import RemoteCallError, Stub, StubDevice
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport


class Calculator(RemoteObject):
    """The servant: its @remote methods are the service interface."""

    device_class = "example_calculator"

    @remote
    def add(self, a: float, b: float) -> float:
        return a + b

    @remote
    def mul(self, a: float, b: float) -> float:
        return a * b

    @remote
    def vector_sum(self, values: list) -> float:
        return float(sum(values))

    @remote
    def divide(self, a: float, b: float) -> float:
        return a / b  # ZeroDivisionError crosses the wire as data


def main() -> None:
    network = LoopbackNetwork()
    client_exe, server_exe = Executive(node=0), Executive(node=1)
    for exe in (client_exe, server_exe):
        PeerTransportAgent.attach(exe).register(
            LoopbackTransport(network), default=True
        )

    calc_tid = server_exe.install(Calculator())

    def pump() -> None:
        server_exe.step()
        client_exe.step()

    stub_dev = StubDevice(pump=pump)
    client_exe.install(stub_dev)
    calc = Stub(stub_dev, client_exe.routes.create_proxy(1, calc_tid))

    print("2 + 3        =", calc.add(2, 3))
    print("2.5 * 4      =", calc.mul(2.5, 4))
    print("sum(1..100)  =", calc.vector_sum(list(range(1, 101))))

    try:
        calc.divide(1, 0)
    except RemoteCallError as exc:
        print("remote error :", exc)

    assert calc.add(2, 3) == 5
    assert stub_dev.outstanding == 0
    print("no calls left outstanding")


if __name__ == "__main__":
    main()
