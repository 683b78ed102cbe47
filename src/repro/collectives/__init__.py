"""Collective communication: functional data movement + latency models."""
