"""Functional (data-moving) implementations of P1 and P2.

The cost side of the switchable strategies lives in
:mod:`repro.parallel.strategy`; this module executes them *for real*
over simulated ranks.  Both take the single-process layer itself (a
frozen :class:`repro.nn.moe.MoE`), and the tests assert
``p1 == p2 == single-process`` elementwise.

Setting: ``E`` global experts served by ``W = E * r`` GPUs.  Both keep
one parameter placement, :func:`column_shards`: rank ``e*r + j`` holds
hidden columns ``j*V/r ..`` of expert ``e``'s ``w1`` and the matching
rows of ``w2``, as views of the layer's weights.  Both are layouts
around the expert-parallel forward's one exchange
(:func:`repro.moe.distributed.expert_exchange`), each rank handing over
the weights it computes with:

* **P1 — expert + data parallelism** (Figure 11): each rank all-gathers
  its replica group's ``r`` shards into the full expert
  (:func:`repro.collectives.functional.all_gather`, the mover that
  ``param_comm_time`` prices), then serves ``1/r`` of the expert's
  token load (each source GPU splits its per-expert capacity slice
  evenly across the ``r`` servers via the fused global All-to-All).
* **P2 — expert + model parallelism** (Figure 12): each rank computes
  on its shard as it is; the local *repeat* copies every token to all
  ``r`` shards, each shard computes a partial output against its
  ``V/r`` hidden columns, and MoE combine adds a local sum-reduction
  over shards.

So an iteration switches between them without moving a parameter:
``tests/test_parallel_functional.py::TestParameterPlacement::
test_switching_moves_no_parameter`` records what every rank hands the
exchange across P1 -> P2 -> P1.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.functional import all_gather
from repro.core.config import MoEConfig
from repro.moe.distributed import expert_exchange, route_and_encode
from repro.moe.encode import fast_decode
from repro.nn.moe import MoE

__all__ = ["column_shards", "p1_forward", "p2_forward"]


def column_shards(w1: np.ndarray, w2: np.ndarray, shards: int
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The one expert placement of P1 and P2: one ``(w1, w2)`` pair per
    rank, where rank ``e*shards + j`` holds the ``(1, M, V/shards)`` /
    ``(1, V/shards, M)`` views of hidden columns ``j*V/shards ..`` of
    expert ``e`` in the ``(E, M, V)`` / ``(E, V, M)`` stacks."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    v = w1.shape[-1]
    if v % shards != 0:
        raise ValueError(
            f"hidden dim {v} not divisible into {shards} shards")
    width = v // shards
    return [(w1[e:e + 1, :, j * width:(j + 1) * width],
             w2[e:e + 1, j * width:(j + 1) * width])
            for e in range(len(w1)) for j in range(shards)]


def p2_forward(rank_inputs: list[np.ndarray], layer: MoE,
               cfg: MoEConfig) -> list[np.ndarray]:
    """Execute one MoE layer under P2 with real data movement."""
    r = cfg.expert_shards
    shards = column_shards(layer.w1.data, layer.w2.data, r)
    crits, buffers, _ = route_and_encode(rank_inputs, layer, cfg,
                                         sharded=True)
    # Local repeat: server rank (e0, j) receives the same expert-e0
    # capacity slice from every source.
    combined = expert_exchange([np.repeat(buf, r, axis=0) for buf in buffers],
                               shards, layer.activation)
    # Local sum reduction of each expert's r partials.
    return [fast_decode(y.reshape(-1, r, *y.shape[1:]).sum(axis=1), crit)
            for y, crit in zip(combined, crits)]


def p1_forward(rank_inputs: list[np.ndarray], layer: MoE,
               cfg: MoEConfig) -> list[np.ndarray]:
    """Execute one MoE layer under P1 with real data movement.

    Each server rank temporarily materializes its expert by
    all-gathering the replica group's column shards (``w2``'s along
    their rows, ``w1``'s transposed), then serves the ``1/r`` share of
    the expert's tokens routed to it by the fused global All-to-All:
    sub-slice ``j`` of every source's capacity slice for expert ``e``
    goes to rank ``e*r + j``.
    """
    r, dc = cfg.expert_shards, cfg.capacity_per_gpu
    shards = column_shards(layer.w1.data, layer.w2.data, r)
    if dc % r != 0:
        raise ValueError(
            f"P1 requires the per-GPU capacity dC={dc} divisible by "
            f"the replica count r={r}")
    crits, buffers, _ = route_and_encode(rank_inputs, layer, cfg,
                                         sharded=True)
    experts = []
    for g in range(0, len(shards), r):
        group = shards[g:g + r]
        w1s = all_gather([w1[0].T for w1, _ in group])
        w2s = all_gather([w2[0] for _, w2 in group])
        experts += [(w1.T[None], w2[None]) for w1, w2 in zip(w1s, w2s)]
    combined = expert_exchange(
        [buf.reshape(-1, dc // r, buf.shape[-1]) for buf in buffers],
        experts, layer.activation)
    return [fast_decode(y.reshape(buf.shape), crit)
            for y, buf, crit in zip(combined, buffers, crits)]
