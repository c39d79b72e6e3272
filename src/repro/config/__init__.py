"""Configuration and control of a distributed XDAQ system.

Paper §4: *"Configuration and control of the executive is done through
I2O executive messages.  They are sent from a Tcl script that resides
on the primary host to all executives in the distributed system.  We
chose Tcl because it is the I2O recommended way for configuration and
control."*  And §3.5: *"a primary host controls all processing nodes.
Secondary hosts may register and subsequently apply for control
rights."*

:mod:`~repro.config.tclish` is the Tcl subset, :mod:`~repro.config.control`
the host controller, :mod:`~repro.config.schema` the typed parameters
and :mod:`~repro.config.bootstrap` the declarative cluster boot.
"""
