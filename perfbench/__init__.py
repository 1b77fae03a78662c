"""Benchmark of the sdtl command line: seeded workloads, references and
per-layer tracing.  Run it with ``python3 perfbench/run.py``."""
