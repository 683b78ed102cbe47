"""Functional (data-moving) implementations of P1 and P2.

The cost side of the switchable strategies lives in
:mod:`repro.parallel.strategy`; this module executes them *for real*
over simulated ranks, which nails down the paper's central switching
claim: P1 and P2 "have the same preference in token feeding, gradient
updating, and parameter placement", so an iteration may use either and
produce **identical numbers** — the tests assert
``p1 == p2 == single-process`` elementwise, where both take the
single-process layer itself (a frozen :class:`repro.nn.moe.MoE`).

Setting: ``E`` global experts served by ``W = E * r`` GPUs.  Both are
layouts around the expert-parallel forward's one exchange
(:func:`repro.moe.distributed.expert_exchange`), with ``E * r`` expert
slots, one per rank:

* **P1 — expert + data parallelism, ZeRO-sliced** (Figure 11): rank
  ``e*r + j`` stores slice ``j`` of expert ``e``'s parameters; before
  computing it all-gathers the full expert within its replica group,
  then serves ``1/r`` of the expert's token load (each source GPU
  splits its per-expert capacity slice evenly across the ``r``
  servers via the fused global All-to-All).
* **P2 — expert + model parallelism, n-sharded** (Figure 12): rank
  ``e*r + j`` permanently holds the ``j``-th column shard of expert
  ``e``'s fflayer; the local *repeat* operation copies every token to
  all ``r`` shards, each shard computes a partial output against its
  ``V/r`` hidden columns, and MoE combine adds a local sum-reduction
  over shards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MoEConfig
from repro.moe.distributed import expert_exchange, route_and_encode
from repro.moe.encode import fast_decode
from repro.nn.moe import MoE

__all__ = [
    "ExpertParams",
    "shard_expert_columns",
    "slice_expert_zero",
    "gather_zero_slices",
    "p1_forward",
    "p2_forward",
]


# ----------------------------------------------------------------------
# Parameter placement
# ----------------------------------------------------------------------

@dataclass
class ExpertParams:
    """Per-expert feed-forward weights.

    ``w1`` has shape ``(E, M, V)`` and ``w2`` shape ``(E, V, M)`` —
    one bias-free fflayer (two GEMMs) per expert, so a zero padding row
    stays zero and the ragged kernel may skip it.
    """

    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self) -> None:
        if self.w1.ndim != 3 or self.w2.ndim != 3:
            raise ValueError("expert weights must be (E, in, out)")
        e, m, v = self.w1.shape
        if self.w2.shape != (e, v, m):
            raise ValueError(
                f"w2 shape {self.w2.shape} incompatible with w1 "
                f"{self.w1.shape}")

    @property
    def num_experts(self) -> int:
        return self.w1.shape[0]

    @property
    def model_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[2]


def shard_expert_columns(experts: ExpertParams, shards: int) -> ExpertParams:
    """Split every expert's fflayer into ``shards`` column shards (P2
    placement): slot ``e*shards + j`` keeps all of expert ``e``'s input
    rows but hidden columns ``j*V/shards ..``, and the matching rows of
    ``w2`` — ``(E*shards, M, V/shards)`` and ``(E*shards, V/shards, M)``.
    """
    e, m, v = experts.w1.shape
    if v % shards != 0:
        raise ValueError(
            f"hidden dim {v} not divisible into {shards} shards")
    width = v // shards
    w1 = experts.w1.reshape(e, m, shards, width).transpose(0, 2, 1, 3)
    return ExpertParams(w1=w1.reshape(e * shards, m, width),
                        w2=experts.w2.reshape(e * shards, width, m))


def slice_expert_zero(experts: ExpertParams, expert: int,
                      shards: int) -> list[np.ndarray]:
    """ZeRO-style flat parameter slices of one expert (P1 placement)."""
    return np.array_split(np.concatenate([experts.w1[expert].ravel(),
                                          experts.w2[expert].ravel()]),
                          shards)


def gather_zero_slices(slices: list[np.ndarray], experts: ExpertParams
                       ) -> ExpertParams:
    """All-gather: reconstruct one full expert from its ZeRO slices."""
    flat = np.concatenate(slices)
    m, v = experts.model_dim, experts.hidden_dim
    return ExpertParams(w1=flat[:m * v].reshape(1, m, v),
                        w2=flat[m * v:].reshape(1, v, m))


# ----------------------------------------------------------------------
# P2: expert + model parallelism (Figure 12)
# ----------------------------------------------------------------------

def p2_forward(rank_inputs: list[np.ndarray], layer: MoE,
               cfg: MoEConfig) -> list[np.ndarray]:
    """Execute one MoE layer under P2 with real data movement."""
    crits, buffers, _ = route_and_encode(rank_inputs, layer, cfg,
                                         sharded=True)
    r = cfg.expert_shards
    shards = shard_expert_columns(ExpertParams(layer.w1.data, layer.w2.data),
                                  r)
    # Local repeat: server rank (e0, j) receives the same expert-e0
    # capacity slice from every source.
    combined = expert_exchange([np.repeat(buf, r, axis=0) for buf in buffers],
                               shards.w1, shards.w2, layer.activation)
    # Local sum reduction of each expert's r partials.
    return [fast_decode(y.reshape(-1, r, *y.shape[1:]).sum(axis=1), crit)
            for y, crit in zip(combined, crits)]


# ----------------------------------------------------------------------
# P1: expert + data parallelism, ZeRO-sliced (Figure 11)
# ----------------------------------------------------------------------

def p1_forward(rank_inputs: list[np.ndarray], layer: MoE,
               cfg: MoEConfig) -> list[np.ndarray]:
    """Execute one MoE layer under P1 with real data movement.

    Each server rank temporarily materializes its expert from the
    replica group's ZeRO slices (the all-gather), then serves the
    ``1/r`` share of the expert's tokens routed to it by the fused
    global All-to-All: sub-slice ``j`` of every source's capacity
    slice for expert ``e`` goes to rank ``e*r + j``.
    """
    crits, buffers, _ = route_and_encode(rank_inputs, layer, cfg,
                                         sharded=True)
    r, dc = cfg.expert_shards, cfg.capacity_per_gpu
    if dc % r != 0:
        raise ValueError(
            f"P1 requires the per-GPU capacity dC={dc} divisible by "
            f"the replica count r={r}")
    experts = ExpertParams(layer.w1.data, layer.w2.data)
    gathered = [gather_zero_slices(slice_expert_zero(experts, e0, r),
                                   experts)
                for e0 in range(experts.num_experts)]
    combined = expert_exchange(
        [buf.reshape(-1, dc // r, buf.shape[-1]) for buf in buffers],
        np.repeat(np.concatenate([g.w1 for g in gathered]), r, axis=0),
        np.repeat(np.concatenate([g.w2 for g in gathered]), r, axis=0),
        layer.activation)
    return [fast_decode(y.reshape(buf.shape), crit)
            for y, buf, crit in zip(combined, buffers, crits)]
