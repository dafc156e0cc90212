"""Seeded end-to-end and per-layer benchmark for symspace.

Run from the repository root:

    python3 -m perfbench.run --workload cli-queries --seed 1 --seconds 15 --trace 0

See ``perfbench/run.py`` for the workloads and metrics.
"""
