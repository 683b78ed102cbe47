"""Multi-rank functional MoE layer over simulated ranks.

Executes the complete distributed data path of Figure 2 with real data
movement: per-rank gating with the shared gate ``G0``, sparse encode,
dispatch All-to-All, local expert computation, combine All-to-All, and
decode.  Two dispatch flavours are provided:

* :func:`distributed_moe_forward` uses **Flexible All-to-All**
  (Table 3): the expert input keeps the scale-independent
  ``(dE, C, M)`` layout;
* the ``flexible=False`` path mimics Fairseq/DeepSpeed: the raw
  All-to-All output layout ``(W, dE, dC, M)`` feeds the experts as
  ``W * dE`` separate small batches — numerically identical, but the
  layout that causes the Figure 7 regression on real hardware.

Because every rank routes into per-rank capacity ``dC``, results match
the single-process layer exactly whenever nothing is dropped; a test
asserts this equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collectives.functional import flexible_all_to_all
from repro.core.config import MoEConfig
from repro.moe.capacity import CapacityPolicy
from repro.moe.encode import fast_decode, fast_encode
from repro.moe.gating import RoutingCriteria, route, softmax
from repro.moe.layer import ExpertParams, MoELayerParams, _gate_logits, expert_ffn

__all__ = [
    "DistributedMoEOutput",
    "shard_experts",
    "route_and_encode",
    "distributed_moe_forward",
]


@dataclass
class DistributedMoEOutput:
    """Per-rank outputs plus aggregate diagnostics."""

    outputs: list[np.ndarray]
    l_aux: float
    dropped_fraction: float


def shard_experts(params: ExpertParams, world_size: int) -> list[ExpertParams]:
    """Split global expert parameters into per-rank local slices.

    Requires ``E`` divisible by ``world_size`` (``dE`` whole experts
    per rank); fractional ``dE`` belongs to the P2 strategy in
    :mod:`repro.parallel`.
    """
    e = params.num_experts
    if e % world_size != 0:
        raise ValueError(
            f"{e} experts not divisible across {world_size} ranks")
    de = e // world_size
    shards = []
    for r in range(world_size):
        sl = slice(r * de, (r + 1) * de)
        shards.append(ExpertParams(
            w1=params.w1[sl], w2=params.w2[sl],
            b1=None if params.b1 is None else params.b1[sl],
            b2=None if params.b2 is None else params.b2[sl]))
    return shards


def route_and_encode(rank_inputs: list[np.ndarray], params: MoELayerParams,
                     cfg: MoEConfig
                     ) -> tuple[list[RoutingCriteria], list[np.ndarray],
                                float]:
    """Per-rank front-end of every multi-rank forward: gate each rank's
    tokens with the shared gate, route them into the fixed per-rank
    capacity ``cfg.capacity_per_gpu`` and sparse-encode the
    ``(E, dC, M)`` dispatch buffers.  Returns the per-rank criteria and
    buffers and the rank-mean auxiliary loss."""
    if len(rank_inputs) != cfg.world_size:
        raise ValueError(
            f"expected {cfg.world_size} rank inputs, got {len(rank_inputs)}")
    crits, buffers, aux_losses = [], [], []
    for x in rank_inputs:
        crit, l_aux, _ = route(softmax(_gate_logits(x, params)), cfg.top_k,
                               cfg.capacity_per_gpu, params.normalize_gate,
                               params.batch_prioritized)
        crits.append(crit)
        buffers.append(fast_encode(x, crit))
        aux_losses.append(l_aux)
    return crits, buffers, float(np.mean(aux_losses))


def distributed_moe_forward(rank_inputs: list[np.ndarray],
                            params: MoELayerParams,
                            cfg: MoEConfig,
                            flexible: bool = True) -> DistributedMoEOutput:
    """Run one MoE layer across ``cfg.world_size`` simulated ranks.

    Parameters
    ----------
    rank_inputs:
        One ``(T, M)`` token array per rank.
    params:
        Global layer parameters (gate is shared; experts are sharded).
    cfg:
        Placement configuration; ``cfg.capacity_per_gpu`` bounds each
        rank's per-expert contribution.
    flexible:
        Use Flexible All-to-All layouts (Tutel) instead of the raw
        All-to-All layout (Fairseq/DeepSpeed).
    """
    w = cfg.world_size
    e = params.experts.num_experts
    if e != cfg.num_global_experts:
        raise ValueError(
            f"params have {e} experts but cfg implies "
            f"{cfg.num_global_experts}")
    de = e // w
    if de * w != e:
        raise ValueError(f"{e} experts not divisible across {w} ranks")

    policy = CapacityPolicy(cfg.capacity_factor)
    if policy.is_adaptive:
        raise ValueError(
            "distributed functional path needs a fixed capacity factor; "
            "resolve the adaptive policy before dispatch")
    cap = cfg.capacity_per_gpu

    crits, dispatch_inputs, l_aux = route_and_encode(rank_inputs, params,
                                                     cfg)

    local_experts = shard_experts(params.experts, w)

    if flexible:
        # (E, dC, M) -> (dE, C, M): scale-independent expert layout.
        expert_inputs = flexible_all_to_all(dispatch_inputs, concat_dim=1,
                                            split_dim=0)
        expert_outputs = [
            expert_ffn(expert_inputs[r], local_experts[r],
                       params.activation)
            for r in range(w)
        ]
        combined = flexible_all_to_all(expert_outputs, concat_dim=0,
                                       split_dim=1)
    else:
        # Raw A2A layout (W, dE, dC, M): experts see W*dE tiny batches.
        m = cfg.model_dim
        raw = [d.reshape(w, de, cap, m) for d in dispatch_inputs]
        exchanged = [np.stack([raw[s][r] for s in range(w)])
                     for r in range(w)]                  # (W, dE, dC, M)
        expert_outputs = []
        for r in range(w):
            batches = exchanged[r].reshape(w * de, cap, m)
            rep = ExpertParams(
                w1=np.tile(local_experts[r].w1, (w, 1, 1)),
                w2=np.tile(local_experts[r].w2, (w, 1, 1)),
                b1=None if local_experts[r].b1 is None
                else np.tile(local_experts[r].b1, (w, 1)),
                b2=None if local_experts[r].b2 is None
                else np.tile(local_experts[r].b2, (w, 1)))
            out = expert_ffn(batches, rep, params.activation)
            expert_outputs.append(out.reshape(w, de, cap, m))
        combined = [np.stack([expert_outputs[s][r] for s in range(w)])
                    .reshape(e, cap, m) for r in range(w)]

    outputs = [fast_decode(combined[r], crits[r]) for r in range(w)]
    return DistributedMoEOutput(
        outputs=outputs,
        l_aux=l_aux,
        dropped_fraction=float(np.mean([crit.dropped_fraction()
                                        for crit in crits])))
