"""Buffer pools and allocators for zero-copy frame memory.

Paper §4: *"the executive has control over all the memory that can be
accessed by the registered modules ... memory pools are used for
zero-copy operation ... Memory is allocated in fixed sized blocks with
a maximum length of 256 KB ... Automatic garbage collection is
provided, such that blocks are recycled if they are not referenced
anymore."*

Two allocator schemes are provided in :mod:`repro.mem.pool`, beside
the ``BufferPool`` they serve, matching the paper's §5 ablation:

* ``OriginalAllocator`` — the scheme measured in the whitebox test
  (frameAlloc 2.18 µs): statically preallocated blocks, linear scan of
  the block list for a fitting free block;
* ``TableAllocator`` — the optimised scheme (*"allocates memory
  for the buffer pool on demand ... relies on a table based matching
  from requested memory size to pool buffer size"*) that cut the
  blackbox overhead from 8.9 µs to 4.9 µs.
"""

# benchmarks/trajectory imports these names from the package.
from repro.mem.pool import BufferPool as BufferPool
from repro.mem.pool import PoolError as PoolError
