"""Functional (data-moving) implementations of P1 and P2.

The cost side of the switchable strategies lives in
:mod:`repro.parallel.strategy`; this module executes them *for real*
over simulated ranks, which nails down the paper's central switching
claim: P1 and P2 "have the same preference in token feeding, gradient
updating, and parameter placement", so an iteration may use either and
produce **identical numbers** — the tests assert
``p1 == p2 == single-process`` elementwise.

Setting: ``E`` global experts served by ``W = E * r`` GPUs.

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
from repro.moe.distributed import route_and_encode
from repro.moe.encode import fast_decode
from repro.moe.ffn import act_forward
from repro.moe.layer import ExpertParams, MoELayerParams, expert_ffn

__all__ = [
    "ShardedExpert",
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
class ShardedExpert:
    """One column shard of an expert fflayer (P2 placement).

    ``w1`` keeps all input rows but ``V/r`` hidden columns; ``w2``
    keeps the matching ``V/r`` hidden rows.  ``b2`` is pre-divided by
    the shard count so summing partials reconstructs the full bias.
    """

    w1: np.ndarray          # (M, V/r)
    w2: np.ndarray          # (V/r, M)
    b1: np.ndarray | None   # (V/r,)
    b2_share: np.ndarray | None  # (M,), already divided by r

    def forward(self, x: np.ndarray, activation: str) -> np.ndarray:
        hidden = x @ self.w1
        if self.b1 is not None:
            hidden = hidden + self.b1
        hidden, _ = act_forward(hidden, activation)
        out = hidden @ self.w2
        if self.b2_share is not None:
            out = out + self.b2_share
        return out


def shard_expert_columns(experts: ExpertParams, expert: int,
                         shards: int) -> list[ShardedExpert]:
    """Split one expert's fflayer into ``shards`` column shards."""
    v = experts.hidden_dim
    if v % shards != 0:
        raise ValueError(
            f"hidden dim {v} not divisible into {shards} shards")
    width = v // shards
    out = []
    for j in range(shards):
        sl = slice(j * width, (j + 1) * width)
        out.append(ShardedExpert(
            w1=experts.w1[expert][:, sl],
            w2=experts.w2[expert][sl, :],
            b1=None if experts.b1 is None else experts.b1[expert][sl],
            b2_share=(None if experts.b2 is None
                      else experts.b2[expert] / shards)))
    return out


def slice_expert_zero(experts: ExpertParams, expert: int,
                      shards: int) -> list[dict[str, np.ndarray]]:
    """ZeRO-style flat parameter slices of one expert (P1 placement)."""
    # An absent bias contributes nothing (an empty float64 placeholder
    # would promote float32 weights).
    flat = np.concatenate(
        [experts.w1[expert].ravel(), experts.w2[expert].ravel()]
        + [b[expert] for b in (experts.b1, experts.b2) if b is not None])
    pieces = np.array_split(flat, shards)
    return [{"slice": p} for p in pieces]


def gather_zero_slices(slices: list[dict[str, np.ndarray]],
                       experts: ExpertParams,
                       expert: int) -> ExpertParams:
    """All-gather: reconstruct the full expert from its ZeRO slices."""
    flat = np.concatenate([s["slice"] for s in slices])
    m, v = experts.model_dim, experts.hidden_dim
    w1 = flat[:m * v].reshape(m, v)
    offset = m * v
    w2 = flat[offset:offset + v * m].reshape(v, m)
    offset += v * m
    b1 = b2 = None
    if experts.b1 is not None:
        b1 = flat[offset:offset + v]
        offset += v
    if experts.b2 is not None:
        b2 = flat[offset:offset + m]
    return ExpertParams(w1=w1[None], w2=w2[None],
                        b1=None if b1 is None else b1[None],
                        b2=None if b2 is None else b2[None])


def _check_p_config(params: MoELayerParams, cfg: MoEConfig) -> int:
    w = cfg.world_size
    e = params.experts.num_experts
    if e != cfg.num_global_experts:
        raise ValueError(
            f"params have {e} experts, cfg implies "
            f"{cfg.num_global_experts}")
    if w % e != 0 or w < e:
        raise ValueError(
            f"P1/P2 need W a multiple of E with W >= E, got W={w}, "
            f"E={e}")
    return w // e


# ----------------------------------------------------------------------
# P2: expert + model parallelism (Figure 12)
# ----------------------------------------------------------------------

def p2_forward(rank_inputs: list[np.ndarray], params: MoELayerParams,
               cfg: MoEConfig) -> list[np.ndarray]:
    """Execute one MoE layer under P2 with real data movement."""
    r = _check_p_config(params, cfg)
    w = cfg.world_size
    e = params.experts.num_experts
    crits, buffers, _ = route_and_encode(rank_inputs, params, cfg)

    # Local repeat + dispatch All-to-All: server rank (e0, j) receives
    # the same expert-e0 capacity slice from every source.
    partials: dict[int, np.ndarray] = {}
    for e0 in range(e):
        tokens = np.concatenate([buf[e0] for buf in buffers])  # (C, M)
        for j, shard in enumerate(
                shard_expert_columns(params.experts, e0, r)):
            partials[e0 * r + j] = shard.forward(tokens,
                                                 params.activation)

    # Combine All-to-All + local sum reduction over the r shards.
    dc = cfg.capacity_per_gpu
    outputs = []
    for src in range(w):
        combined = np.zeros_like(buffers[src])
        for e0 in range(e):
            rows = slice(src * dc, (src + 1) * dc)
            total = sum(partials[e0 * r + j][rows] for j in range(r))
            combined[e0] = total
        outputs.append(fast_decode(combined, crits[src]))
    return outputs


# ----------------------------------------------------------------------
# P1: expert + data parallelism, ZeRO-sliced (Figure 11)
# ----------------------------------------------------------------------

def p1_forward(rank_inputs: list[np.ndarray], params: MoELayerParams,
               cfg: MoEConfig) -> list[np.ndarray]:
    """Execute one MoE layer under P1 with real data movement.

    Each server rank temporarily materializes its expert from the
    replica group's ZeRO slices (the all-gather), then serves the
    ``1/r`` share of the expert's tokens routed to it by the fused
    global All-to-All.
    """
    r = _check_p_config(params, cfg)
    w = cfg.world_size
    e = params.experts.num_experts
    dc = cfg.capacity_per_gpu
    if dc % r != 0:
        raise ValueError(
            f"P1 requires the per-GPU capacity dC={dc} divisible by "
            f"the replica count r={r}")
    sub = dc // r
    crits, buffers, _ = route_and_encode(rank_inputs, params, cfg)

    outputs_parts: dict[tuple[int, int], np.ndarray] = {}
    for e0 in range(e):
        slices = slice_expert_zero(params.experts, e0, r)
        full = gather_zero_slices(slices, params.experts, e0)
        for j in range(r):
            # Server j of expert e0 receives sub-slice j of every
            # source's capacity slice for e0 (fused global A2A).
            rows = np.concatenate(
                [buffers[src][e0][j * sub:(j + 1) * sub]
                 for src in range(w)])                # (W*sub, M)
            out = expert_ffn(rows[None], full,
                             params.activation)[0]
            outputs_parts[(e0, j)] = out

    outputs = []
    for src in range(w):
        combined = np.zeros_like(buffers[src])
        for e0 in range(e):
            for j in range(r):
                part = outputs_parts[(e0, j)]
                combined[e0][j * sub:(j + 1) * sub] = \
                    part[src * sub:(src + 1) * sub]
        outputs.append(fast_decode(combined, crits[src]))
    return outputs
