"""The benchmark harness: regenerates every table and figure.

Each experiment from DESIGN.md's per-experiment index has a
``run_<id>`` function here returning a plain-data result with a
``report()``, reached through the one CLI (``python -m repro.bench
<id|all> [--gate]``) and, at small sizes, from ``tests/bench``.
"""
