"""Benchmark for the flashspec engine: host throughput and simulated speedup
of the four drafting policies on three workloads, plus a traced per-layer
run.  Entry point: ``python3 flashbench/run.py --help``."""
