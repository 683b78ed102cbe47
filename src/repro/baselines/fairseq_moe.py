"""Fairseq-MoE-style baseline (paper's primary comparison target).

Reproduces the execution profile the paper attributes to the Fairseq
``moe`` branch:

* dense GShard einsum encode/decode (Figure 18a) with the associated
  ``(T, E, dC)`` activation tensors;
* the linear All-to-All algorithm only, degree-1 (no overlap);
* the raw ``(W, dE, dC, M)`` All-to-All output layout feeding experts;
* static parallelism.

Both halves are provided: a *functional* layer that really computes
(dense encode path over NumPy) here, and the *execution profile* for
the performance substrate, :data:`repro.runtime.plan.FAIRSEQ_FEATURES`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cluster.memory import MemoryBreakdown, dense_moe_memory
from repro.core.config import MoEConfig
from repro.moe.capacity import CapacityPolicy
from repro.moe.layer import MoELayerParams, MoEOutput, moe_layer_forward

__all__ = [
    "fairseq_moe_forward",
    "fairseq_memory",
]


def fairseq_moe_forward(x: np.ndarray, params: MoELayerParams,
                        top_k: int | None = None,
                        capacity_factor: float = 1.0) -> MoEOutput:
    """Single-process Fairseq-style forward using the dense encode path.

    Numerically identical to the Tutel layer; the difference is the
    O(T * E * dC * M) dense einsum work and the materialized one-hot
    tensors.  Fairseq supports neither adaptive capacity (f <= 0) nor
    per-iteration ``k`` changes, so only a fixed positive factor is
    accepted; it has no batch prioritized routing either.
    """
    if capacity_factor <= 0:
        raise ValueError(
            "Fairseq baseline requires a fixed positive capacity factor")
    return moe_layer_forward(
        x, replace(params, use_fast_encode=False, batch_prioritized=False),
        top_k=top_k, capacity=CapacityPolicy(capacity_factor))


def fairseq_memory(cfg: MoEConfig) -> MemoryBreakdown:
    """Per-GPU memory of the Fairseq dense path (Table 4 left column)."""
    return dense_moe_memory(cfg)
