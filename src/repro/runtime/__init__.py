"""Runtime planning and execution: feature toggles -> MoE layer step
times, plus the real multicore expert-parallel FFN executor."""
