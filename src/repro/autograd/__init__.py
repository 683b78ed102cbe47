"""Minimal reverse-mode autograd used by the training experiments."""
