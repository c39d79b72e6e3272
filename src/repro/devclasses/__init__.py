"""The I2O standard device-class library.

Paper §3.3: *"Messages are combined to sets that form device classes.
So, each concrete I2O device has to implement executive and utility
events that allow the configuration and control of the device.  Finally
it must implement the interface of one of the I2O devices, e.g. the
Block Storage or Tape device class.  Through these three interfaces it
is a Device Driver Module."*

This package provides the device classes the spec names, as working
Listener subclasses over simulated media:

* :mod:`repro.devclasses.block` — ``BlockStorageDevice``, random-access
  block storage (I2O BSA), and its ``BlockClient``;
* :mod:`repro.devclasses.sequential` — ``SequentialStorageDevice``,
  tape-style sequential storage, and its ``SequentialClient``,

the clients being synchronous helpers.  Applications remain
"merely a new, private device class" — these exist so the claim that
*everything* (storage, applications) speaks the same
three-interface protocol is demonstrated, not just asserted.
"""
