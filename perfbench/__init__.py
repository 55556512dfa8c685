"""Benchmark of isosym: three workloads, end-to-end and per-layer metrics.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of a checkout.
"""
