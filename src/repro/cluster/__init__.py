"""Simulated GPU cluster substrate: topology, cost models, event engine."""
