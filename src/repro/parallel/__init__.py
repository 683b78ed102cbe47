"""Switchable parallelism: P1/P2 strategies, placement, inline router."""
