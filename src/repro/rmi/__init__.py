"""RMI-style adapters over I2O frames.

Paper §4: *"To further shield users from these details, adapters can
be provided that allow a remote method invocation style communication
scheme.  The stub part will take the call parameters and marshal them
into a standard message, whereas the skeleton part scans the message
and provides typed pointers to its contents."*

:mod:`~repro.rmi.stub` is the stub part, :mod:`~repro.rmi.skeleton` the
skeleton (``RemoteObject``, ``@remote``) and :mod:`~repro.rmi.marshal`
the wire encoding between them.
"""
