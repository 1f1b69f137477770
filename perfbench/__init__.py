"""Benchmark for nols: workloads, tracing and the run entry point (see README.md)."""
