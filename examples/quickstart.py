#!/usr/bin/env python
"""Quickstart: two nodes, one private device class, one round trip.

This is the paper's programming model end to end:

1. define an application as a *private device class* (a Listener
   subclass binding private messages);
2. install it into an executive, which assigns its TiD;
3. create a local *proxy TiD* for the remote device — after this the
   application cannot tell local from remote;
4. frameSend / frameReply through the messaging queues.

Run: ``python examples/quickstart.py``
"""

from repro.core.device import Listener
from repro.core.executive import Executive
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport

XF_GREET = 0x0001


class Greeter(Listener):
    """The serving side: answers every greeting."""

    device_class = "example_greeter"

    def on_plugin(self) -> None:
        # Configuration-time association of code with an event (§3.2).
        self.bind(XF_GREET, self.on_greet)

    def on_greet(self, frame) -> None:
        if frame.is_reply:
            return
        name = bytes(frame.payload).decode("utf-8")
        self.reply(frame, f"hello, {name}!".encode("utf-8"))


class Caller(Listener):
    """The calling side: sends a greeting, prints the reply."""

    device_class = "example_caller"

    def __init__(self, name: str = "caller") -> None:
        super().__init__(name)
        self.peer = None
        self.answers: list[str] = []

    def on_plugin(self) -> None:
        self.bind(XF_GREET, self.on_answer)

    def greet(self, who: str) -> None:
        self.send(self.peer, who.encode("utf-8"), xfunction=XF_GREET)

    def on_answer(self, frame) -> None:
        if frame.is_reply:
            self.answers.append(bytes(frame.payload).decode("utf-8"))


def main() -> None:
    # Two "nodes" in one process, joined by the loopback transport.
    network = LoopbackNetwork()
    node0, node1 = Executive(node=0), Executive(node=1)
    for exe in (node0, node1):
        pta = PeerTransportAgent.attach(exe)
        pta.register(LoopbackTransport(network), default=True)

    greeter_tid = node1.install(Greeter())
    caller = Caller()
    node0.install(caller)

    # Location transparency: the caller only ever sees a local TiD.
    caller.peer = node0.routes.create_proxy(node=1, remote_tid=greeter_tid)

    caller.greet("cluster")
    caller.greet("I2O")
    # Drive both executives until all queues drain.
    while not (node0.idle and node1.idle):
        node0.step()
        node1.step()

    for answer in caller.answers:
        print(answer)
    assert caller.answers == ["hello, cluster!", "hello, I2O!"]
    print(f"caller TiD={caller.tid}, greeter proxy TiD={caller.peer} "
          f"(remote real TiD={greeter_tid})")
    print("pool blocks in flight:", node0.pool.in_flight, node1.pool.in_flight)


if __name__ == "__main__":
    main()
