"""Reference baseline implementations: Fairseq MoE, DeepSpeed MoE."""
