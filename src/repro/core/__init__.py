"""Core configuration and shared utilities."""
