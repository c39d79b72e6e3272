"""A distributed data-acquisition application kit built on the framework.

The paper's framework exists for exactly this workload (§1: the LHC
experiment's DAQ, "Tbytes/s ... hundreds kHz message rates"; footnote:
"in our DAQ system, n nodes talk to m other nodes in both directions").
This package implements the classic CMS-style event-builder roles as
private device classes:

* :class:`~repro.daq.trigger.TriggerSource` — emits triggers (timer- or
  manually-driven);
* :class:`~repro.daq.manager.EventManager` — assigns each event to a
  builder unit, tracks completion, clears readout buffers;
* :class:`~repro.daq.readout.ReadoutUnit` — buffers synthetic detector
  fragments per event;
* :class:`~repro.daq.builder.BuilderUnit` — collects one fragment per
  readout unit and assembles the full event (n×m crossing traffic);
* :class:`~repro.daq.monitor.DaqMonitor` — subscribes to counters via
  the standard event-register utility messages.

Everything communicates through ordinary private I2O messages, so the
same application runs unchanged over loopback, queue, TCP or simulated
Myrinet transports — the paper's flexibility claim, which the test
suite exercises transport-by-transport.
"""
