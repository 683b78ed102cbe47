"""Bench harness utilities shared by the benchmarks/ scripts."""
