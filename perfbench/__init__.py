"""Seeded end-to-end benchmark of the repro package with a traced per-layer split.

Run it from the repository root with ``python3 perfbench/run.py --help``;
``perfbench/README.md`` documents the workloads and metrics.
"""
