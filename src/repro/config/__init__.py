"""Configuration and control of a distributed XDAQ system.

Paper §4: *"Configuration and control of the executive is done through
I2O executive messages.  They are sent from a Tcl script that resides
on the primary host to all executives in the distributed system.  We
chose Tcl because it is the I2O recommended way for configuration and
control."*  And §3.5: *"a primary host controls all processing nodes.
Secondary hosts may register and subsequently apply for control
rights."*
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.config.control import ControlError, HostController
    from repro.config.tclish import TclError, TclInterp

__all__ = ["ControlError", "HostController", "TclError", "TclInterp"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config.control": ("ControlError", "HostController"),
    "repro.config.tclish": ("TclError", "TclInterp"),
})
