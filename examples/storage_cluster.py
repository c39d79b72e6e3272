#!/usr/bin/env python
"""Storage as I2O device classes: the spec's own examples, distributed.

Paper §3.3 names the Block Storage and Tape device classes as the
interfaces a DDM implements.  This example runs both on remote nodes
and drives them from a third — block writes, tape archiving with
filemarks, standard-parameter monitoring — all through the same frames,
proxies and transports as every other example.

The scenario: a DAQ run writes event records to "disk" (block device),
then archives the run to "tape" with a filemark per run.

Run: ``python examples/storage_cluster.py``
"""

from repro.core.executive import Executive
from repro.devclasses.block import BlockClient, BlockStorageDevice
from repro.devclasses.sequential import SequentialClient, SequentialStorageDevice
from repro.transports.agent import PeerTransportAgent
from repro.transports.loopback import LoopbackNetwork, LoopbackTransport


def main() -> None:
    network = LoopbackNetwork()
    cluster = {}
    for node in range(3):
        exe = Executive(node=node)
        PeerTransportAgent.attach(exe).register(
            LoopbackTransport(network), default=True
        )
        cluster[node] = exe

    def pump() -> None:
        for exe in cluster.values():
            exe.step()

    # Node 1: a disk.  Node 2: a tape drive.  Node 0: the client.
    disk = BlockStorageDevice(block_size=256, capacity_blocks=128)
    disk_tid = cluster[1].install(disk)
    tape = SequentialStorageDevice()
    tape_tid = cluster[2].install(tape)

    blocks = BlockClient(pump=pump)
    cluster[0].install(blocks)
    tapes = SequentialClient(pump=pump)
    cluster[0].install(tapes)
    disk_proxy = cluster[0].routes.create_proxy(1, disk_tid)
    tape_proxy = cluster[0].routes.create_proxy(2, tape_tid)

    print("disk status:", blocks.status(disk_proxy))

    # -- a 'run' writes event records to consecutive blocks -------------
    records = [f"event-{i:04d}".encode().ljust(256, b".") for i in range(8)]
    for lba, record in enumerate(records):
        blocks.write(disk_proxy, lba, record)
    print(f"wrote {len(records)} event records to the block device")

    # -- archive the run to tape, ending with a filemark ------------------
    for lba in range(len(records)):
        tapes.write(tape_proxy, blocks.read(disk_proxy, lba))
    tapes.write_filemark(tape_proxy)
    print("archived run 1 to tape (with filemark)")

    # A second, shorter run.
    blocks.write(disk_proxy, 0, b"run-2 event".ljust(256, b"."))
    tapes.write(tape_proxy, blocks.read(disk_proxy, 0))
    tapes.write_filemark(tape_proxy)

    # -- read the archive back, file by file -----------------------------
    tapes.rewind(tape_proxy)
    run1 = tapes.read_file(tape_proxy)
    run2 = tapes.read_file(tape_proxy)
    print(f"tape holds run 1 with {len(run1)} records, "
          f"run 2 with {len(run2)} records")
    assert run1 == records
    assert run2[0].startswith(b"run-2 event")

    # -- the common observation scheme works on storage too ---------------
    assert disk.export_counters()["writes"] == 9
    assert tape.export_counters()["records"] == 11  # 9 records + 2 marks
    print("storage counters:", disk.export_counters(),
          tape.export_counters())

    for exe in cluster.values():
        exe.pool.check_conservation()
    print("all pools conserved")


if __name__ == "__main__":
    main()
