"""Functional MoE core: gating, capacity, encode/decode, layers."""
