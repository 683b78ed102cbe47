"""Multi-rank functional MoE layer over simulated ranks.

Executes the complete distributed data path of Figure 2 with real data
movement: per-rank gating with the shared gate ``G0``, sparse encode,
dispatch All-to-All, local expert computation, combine All-to-All, and
decode.  Every multi-rank forward is one layout around one exchange,
:func:`expert_exchange`: the dispatch **Flexible All-to-All** (Table 3,
so each rank's expert input keeps the scale-independent ``(dE, C, M)``
layout), the expert weights each rank holds through the fused FFN
kernel of :mod:`repro.moe.ffn`, and the combine All-to-All.
:func:`distributed_moe_forward` is the expert-parallel layout (``dE``
whole experts per rank, views of the layer's weights); P1 and P2
(:mod:`repro.parallel.functional`) are the other two, over one column
shard placement that neither copies
(``tests/test_parallel_functional.py::TestParameterPlacement::
test_switching_moves_no_parameter``).  Figure 7's raw
``(W, dE, dC, M)`` layout is priced by :mod:`repro.cluster.gemm`, not
executed.

Every forward takes the single-process layer itself, a frozen
:class:`repro.nn.moe.MoE`: each rank routes with that layer's router
and reads its expert weights.  Because every rank routes into per-rank
capacity ``dC``, results match the layer's own forward exactly whenever
nothing is dropped (and, at ``W = 1``, whenever ``dC`` is the capacity
the layer resolves); the tests assert both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd.tensor import Tensor
from repro.collectives.functional import flexible_all_to_all
from repro.core.config import MoEConfig
from repro.moe.encode import fast_decode, fast_encode
from repro.moe.ffn import ffn_forward_arrays
from repro.moe.gating import RoutingCriteria, softmax
from repro.nn.moe import MoE, route

__all__ = [
    "DistributedMoEOutput",
    "route_and_encode",
    "expert_exchange",
    "distributed_moe_forward",
]


@dataclass
class DistributedMoEOutput:
    """Per-rank outputs plus aggregate diagnostics."""

    outputs: list[np.ndarray]
    l_aux: float
    dropped_fraction: float


def route_and_encode(rank_inputs: list[np.ndarray], layer: MoE,
                     cfg: MoEConfig, sharded: bool
                     ) -> tuple[list[RoutingCriteria], list[np.ndarray],
                                float]:
    """Per-rank front-end of every multi-rank forward: gate each rank's
    tokens with ``layer``'s router (shared by every rank), route them
    into the fixed per-rank capacity ``cfg.capacity_per_gpu`` and
    sparse-encode the ``(E, dC, M)`` dispatch buffers.  Returns the
    per-rank criteria and buffers and the rank-mean auxiliary loss.

    First checks the layer and the placement: ``layer`` masks no expert
    (a masked expert is a single-process degradation path), holds the
    ``E`` experts ``cfg`` implies, one input per rank, and either ``dE``
    whole experts per rank or, ``sharded`` (P1/P2), each expert over
    ``r = cfg.expert_shards`` ranks with ``W = E * r``."""
    w, e = cfg.world_size, layer.num_experts
    if layer.failed_experts:
        raise ValueError(
            f"layer masks experts {sorted(layer.failed_experts)}; the "
            f"multi-rank forwards route over all {e}")
    if e != cfg.num_global_experts:
        raise ValueError(
            f"layer has {e} experts but cfg implies "
            f"{cfg.num_global_experts}")
    if sharded and e * cfg.expert_shards != w:
        raise ValueError(
            f"P1/P2 need W a multiple of E with W >= E, got W={w}, E={e}")
    if not sharded and e % w:
        raise ValueError(f"{e} experts not divisible across {w} ranks")
    if len(rank_inputs) != w:
        raise ValueError(
            f"expected {w} rank inputs, got {len(rank_inputs)}")
    crits, buffers, aux_losses = [], [], []
    for x in rank_inputs:
        logits = layer.gate_logits(Tensor(x, dtype=x.dtype)).data
        routing = route(softmax(logits, axis=1), cfg.top_k,
                        cfg.capacity_per_gpu, layer.batch_prioritized)
        crits.append(routing.crit.with_gates(routing.gates))
        buffers.append(fast_encode(x, routing.crit))
        aux_losses.append(float(routing.l_aux))
    return crits, buffers, float(np.mean(aux_losses))


def expert_exchange(buffers: list[np.ndarray],
                    weights: list[tuple[np.ndarray, np.ndarray]],
                    activation: str) -> list[np.ndarray]:
    """Dispatch All-to-All -> expert FFN -> combine All-to-All.

    ``buffers`` holds one ``(E', dC', M)`` array per rank and
    ``weights`` one ``(w1, w2)`` pair per rank: the ``(n, M, V')`` /
    ``(n, V', M)`` stacks of the ``n = E'/W`` slots that rank serves,
    ``[r * n, (r + 1) * n)``.  The FFN runs every capacity row
    (``rows=None``): the receiving rank does not hold the senders'
    occupancy.  Returns the ``(E', dC', M)`` expert outputs back on
    their source ranks.
    """
    if len(weights) != len(buffers):
        raise ValueError(
            f"{len(weights)} weight pairs for {len(buffers)} ranks")
    for r, (w1, _) in enumerate(weights):
        if len(w1) * len(buffers) != len(buffers[0]):
            raise ValueError(
                f"rank {r}'s weight stack has {len(w1)} experts, "
                f"buffers {len(buffers[0])} over {len(buffers)} ranks")
    received = flexible_all_to_all(buffers, concat_dim=1, split_dim=0)
    outputs = [ffn_forward_arrays(x, w1, w2, activation, save=False)[0]
               for x, (w1, w2) in zip(received, weights)]
    return flexible_all_to_all(outputs, concat_dim=0, split_dim=1)


def distributed_moe_forward(rank_inputs: list[np.ndarray], layer: MoE,
                            cfg: MoEConfig) -> DistributedMoEOutput:
    """Run one MoE layer across ``cfg.world_size`` simulated ranks,
    expert-parallel: rank ``r`` holds experts ``[r * dE, (r + 1) * dE)``
    and the ``(E, dC, M)`` buffers cross the exchange as they are.

    Parameters
    ----------
    rank_inputs:
        One ``(T, M)`` token array per rank.
    layer:
        The frozen single-process layer (router shared; experts
        sharded).
    cfg:
        Placement configuration; ``cfg.capacity_per_gpu`` bounds each
        rank's per-expert contribution.
    """
    crits, buffers, l_aux = route_and_encode(rank_inputs, layer, cfg,
                                             sharded=False)
    w1, w2 = layer.w1.data, layer.w2.data
    de = len(w1) // cfg.world_size
    combined = expert_exchange(
        buffers, [(w1[r * de:(r + 1) * de], w2[r * de:(r + 1) * de])
                  for r in range(cfg.world_size)], layer.activation)
    return DistributedMoEOutput(
        outputs=[fast_decode(y, crit) for y, crit in zip(combined, crits)],
        l_aux=l_aux,
        dropped_fraction=float(np.mean([crit.dropped_fraction()
                                        for crit in crits])))
