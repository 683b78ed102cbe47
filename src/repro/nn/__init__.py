"""Trainable modules: layers, MoE, and the experiment classifiers."""
