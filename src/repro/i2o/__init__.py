"""The I2O message layer: frames, function codes, TiD addressing.

Everything that moves through an XDAQ cluster — application data,
timer expirations, watchdog events, configuration commands — is one of
these frames (paper §3.2: "essentially every occurrence in the system
is mapped to an I2O message").
"""

# benchmarks/trajectory imports these names from the package.
from repro.i2o.frame import HEADER_SIZE as HEADER_SIZE
from repro.i2o.frame import Frame as Frame
from repro.i2o.tid import Tid as Tid
