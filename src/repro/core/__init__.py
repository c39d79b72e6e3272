"""The XDAQ executive core.

Paper §4: *"The executive accepts incoming messages and forwards them
to the device classes ... the loop of control remains in the executive
framework.  There exist multiple dispatch tables for all the device
class instances, but the executive performs the dispatching.
Furthermore the executive has control over all the memory that can be
accessed by the registered modules."*

The loop of control is :mod:`~repro.core.executive`; device classes
derive from ``Listener`` in :mod:`~repro.core.device`; the seven-level
queue is :mod:`~repro.core.scheduler` and the dispatch tables
:mod:`~repro.core.dispatcher`.  The other modules are one service
each, named for it.
"""

# benchmarks/trajectory imports these names from the package.
from repro.core.device import Listener as Listener
from repro.core.executive import Executive as Executive
from repro.core.scheduler import PriorityScheduler as PriorityScheduler
