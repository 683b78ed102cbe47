"""Workload models: SwinV2-MoE geometry and dynamic workload traces."""
