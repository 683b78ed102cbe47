"""Runtime planning: feature toggles -> MoE layer step times, priced
by the kernel cost models."""
