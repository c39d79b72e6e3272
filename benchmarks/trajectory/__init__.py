"""The repo's one benchmark: native-plane workloads, end to end and per layer.

Run ``python -m benchmarks.trajectory`` from the repository root; see
``README.md`` in this directory for what each workload is for, which
layer metric is predicted to move which end-to-end metric, and the
exact public functions of ``repro`` the driver depends on.
"""
