"""Adaptive pipelining: token partition, schedules, online search."""
