"""Switchable parallelism strategies P1 and P2 (paper Section 3.2).

When experts are fewer than GPUs, each expert is served by
``r = W / E`` GPUs.  Two hybrid strategies cover that regime:

* **P1 — switchable expert + data parallelism** (Figure 11): a single
  fused global All-to-All delivers tokens; each GPU stores a ``1/r``
  column shard of its expert's parameters and temporarily all-gathers
  the full expert before computing on its ``C/r`` share of tokens.
  Training adds a reduce-scatter of expert gradients.
  ``T_data = O(dE*C*M) + O(params_in_single_expert)``.

* **P2 — switchable expert + model parallelism** (Figure 12): each
  expert's fflayer is column-sharded over ``r`` GPUs; tokens are
  locally repeated ``r`` times before dispatch so every shard sees all
  ``C`` tokens, and combine adds a local sum-reduction of partials.
  ``T_model = O(r * dE * C * M)`` with no parameter communication.

Both strategies keep identical token feeding and one parameter
placement — rank ``e*r + j`` holds column shard ``j`` of expert ``e``,
which P2 computes on and P1 all-gathers (executed in
:mod:`repro.parallel.functional`; ``tests/test_parallel_functional.py::
TestParameterPlacement::test_switching_moves_no_parameter``) — so they
can switch at every iteration without moving a parameter, which is why
:func:`best_strategy` only compares their costs.  The gradient half
(P1's reduce-scatter onto that shard) is priced, not executed.

:func:`build_segment_spec` is the one description of what each layout
(EP, P1, P2, and Figure 7's raw ``(W, dE, dC, M)`` layout) hands the
dispatch-expert-combine segment; the strategy costs, the runtime
planner, the pipeline schedules and the DeepSpeed baseline all read it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cluster.gemm import expert_ffn_time
from repro.cluster.linkmodel import contiguous_memcpy_time
from repro.cluster.topology import ClusterTopology
from repro.collectives.schedule import (
    A2AAlgorithm,
    all_gather_time,
    best_a2a_algorithm,
    reduce_scatter_time,
)
from repro.core.config import MoEConfig

__all__ = [
    "Parallelism",
    "SegmentSpec",
    "StrategyCost",
    "p1_communication_bytes",
    "p2_communication_bytes",
    "build_segment_spec",
    "param_comm_time",
    "strategy_cost",
    "available_strategies",
    "best_strategy",
]


class Parallelism(enum.Enum):
    """The parallelism state machine states of Figure 13."""

    EP = "ep"            # pure expert parallelism (r == 1 special case)
    P1_EP_DP = "p1"      # expert + data parallelism (all-gathered)
    P2_EP_MP = "p2"      # expert + model parallelism (n-sharded)


@dataclass(frozen=True)
class SegmentSpec:
    """Shape of the dispatch-expert-combine segment on one GPU.

    Decouples the pipeline builder from :class:`MoEConfig` so the
    runtime can feed parallelism-adjusted shapes (e.g. P2 repeats the
    All-to-All payload ``r`` times and shards the hidden dimension).
    Built only by :func:`build_segment_spec`.
    """

    a2a_bytes: float          # per-GPU All-to-All payload per leg
    expert_batch: int         # independent expert problems per GPU
    expert_rows: int          # token rows per expert problem
    model_dim: int
    hidden_dim: int

    def __post_init__(self) -> None:
        if self.a2a_bytes < 0:
            raise ValueError(f"a2a_bytes must be >= 0, got {self.a2a_bytes}")
        if min(self.expert_batch, self.expert_rows, self.model_dim,
               self.hidden_dim) < 1:
            raise ValueError("segment dimensions must be >= 1")


@dataclass(frozen=True)
class StrategyCost:
    """Cost breakdown of one strategy for one iteration."""

    strategy: Parallelism
    a2a_bytes: int              # per-GPU bytes per All-to-All leg
    param_bytes: int            # per-GPU parameter-traffic bytes
    comm_time: float            # total communication seconds
    compute_time: float         # expert fflayer seconds
    a2a_algorithm: A2AAlgorithm

    @property
    def total_time(self) -> float:
        return self.comm_time + self.compute_time


def p1_communication_bytes(cfg: MoEConfig) -> tuple[int, int]:
    """(A2A bytes per leg, parameter bytes) of P1 for one forward.

    The fused global All-to-All moves the plain dispatch buffer; each
    rank all-gathers the missing ``(r-1)/r`` of one expert's parameters
    (its peers' column shards) within the replica group — exactly the
    bytes the executed gather moves (``tests/test_parallel_functional.py::
    TestParameterPlacement::test_p1_gather_moves_the_priced_bytes``).
    """
    r = cfg.expert_shards
    a2a = cfg.dispatch_bytes_per_gpu
    params = 0
    if r > 1:
        params = int(cfg.expert_parameter_bytes * (r - 1) / r)
    return a2a, params


def p2_communication_bytes(cfg: MoEConfig) -> tuple[int, int]:
    """(A2A bytes per leg, parameter bytes) of P2 for one forward.

    Tokens are repeated ``r`` times by the local repeat operation, so
    each All-to-All leg carries ``r`` times the dispatch buffer; no
    parameter traffic is needed.
    """
    return cfg.expert_shards * cfg.dispatch_bytes_per_gpu, 0


def build_segment_spec(cfg: MoEConfig, parallelism: Parallelism,
                       flexible_a2a: bool = True) -> SegmentSpec:
    """Segment shape implied by the parallelism + layout choices.

    With Flexible All-to-All the expert consumes the scale-independent
    ``(dE, C, M)`` layout: EP computes all ``C`` rows, P1 ``C / r`` rows
    per GPU, and P2 all ``C`` rows against a ``1/r`` hidden shard with
    ``r`` times the dispatch bytes.  Without it the expert consumes the
    raw ``(W, dE, dC, M)`` layout: ``W * dE`` problems of only ``dC``
    rows each (``dC / r`` under P1) — the Figure 7 regression.  P2
    always repeats tokens into its own layout.
    """
    r = cfg.expert_shards
    de = max(1, round(cfg.experts_per_gpu))
    if parallelism is Parallelism.P2_EP_MP:
        a2a_bytes, _ = p2_communication_bytes(cfg)
        return SegmentSpec(a2a_bytes=a2a_bytes, expert_batch=de,
                           expert_rows=cfg.global_capacity,
                           model_dim=cfg.model_dim,
                           hidden_dim=max(1, cfg.hidden_dim // r))
    a2a_bytes, _ = p1_communication_bytes(cfg)
    if flexible_a2a:
        batch, rows = de, cfg.global_capacity
    else:
        batch, rows = cfg.world_size * de, cfg.capacity_per_gpu
    shards = r if parallelism is Parallelism.P1_EP_DP else 1
    return SegmentSpec(a2a_bytes=a2a_bytes, expert_batch=batch,
                       expert_rows=max(1, rows // shards),
                       model_dim=cfg.model_dim, hidden_dim=cfg.hidden_dim)


def param_comm_time(cfg: MoEConfig, topo: ClusterTopology,
                    parallelism: Parallelism,
                    training: bool = True) -> float:
    """Per-iteration parameter traffic of P1's ZeRO-style access.

    Zero for EP and P2, and for P1 when ``r == 1``.  The full expert is
    all-gathered for the forward pass and again for the backward pass
    (ZeRO-3 semantics), gradients are reduce-scattered in fp32 (twice
    the activation dtype width), and the gathered weights must be
    materialized into a contiguous buffer each time — a blocking cost
    that cannot overlap with the MoE layer's own All-to-Alls.  This is
    the term that makes P2 preferable when expert parameters outweigh
    the token volume (paper Figure 3 / Table 5b).
    """
    r = cfg.expert_shards
    if parallelism is not Parallelism.P1_EP_DP or r == 1:
        return 0.0
    param_bytes = cfg.expert_parameter_bytes
    shard = param_bytes / r
    passes = 2 if training else 1
    total = passes * all_gather_time(topo, shard, group_size=r)
    total += passes * contiguous_memcpy_time(topo.gpu, param_bytes)
    if training:
        fp32_grads = param_bytes * (4 / max(cfg.dtype_bytes, 1))
        total += reduce_scatter_time(topo, fp32_grads, group_size=r)
    return total


def strategy_cost(cfg: MoEConfig, topo: ClusterTopology,
                  strategy: Parallelism,
                  training: bool = True,
                  a2a_candidates: tuple[A2AAlgorithm, ...] | None = None
                  ) -> StrategyCost:
    """Full per-iteration cost of running the MoE layer under a strategy.

    Communication counts two All-to-All legs (dispatch + combine) for a
    forward pass, doubled for training (backward re-runs both), plus the
    strategy's parameter traffic (all-gather, and reduce-scatter of
    gradients when training).  Compute uses the layout-aware GEMM model
    on the strategy's segment shape; the per-GPU FLOPs of P1 and P2 are
    identical by construction, but row counts (hence efficiency) differ
    slightly.
    """
    if strategy is Parallelism.EP and cfg.expert_shards != 1:
        raise ValueError("EP state requires r == 1 (E >= W)")
    spec = build_segment_spec(cfg, strategy)
    param_bytes = (p1_communication_bytes(cfg)[1]
                   if strategy is Parallelism.P1_EP_DP else 0)

    algo, one_leg = best_a2a_algorithm(topo, spec.a2a_bytes,
                                       candidates=a2a_candidates)
    legs = 4 if training else 2
    comm = legs * one_leg + param_comm_time(cfg, topo, strategy, training)
    compute = expert_ffn_time(topo.gpu, spec.expert_batch,
                              spec.expert_rows, spec.model_dim,
                              spec.hidden_dim, backward=training)
    return StrategyCost(strategy=strategy, a2a_bytes=spec.a2a_bytes,
                        param_bytes=param_bytes, comm_time=comm,
                        compute_time=compute, a2a_algorithm=algo)


def available_strategies(cfg: MoEConfig) -> tuple[Parallelism, ...]:
    """Strategies the Figure 13 state machine allows for this config.

    ``r == 1`` (at least one expert per GPU) admits only plain EP;
    ``r > 1`` admits the two switchable hybrids P1 and P2.
    """
    if cfg.expert_shards == 1:
        return (Parallelism.EP,)
    return (Parallelism.P1_EP_DP, Parallelism.P2_EP_MP)


def best_strategy(cfg: MoEConfig, topo: ClusterTopology,
                  training: bool = True,
                  a2a_candidates: tuple[A2AAlgorithm, ...] | None = None
                  ) -> StrategyCost:
    """Cheapest admissible strategy for one iteration.

    This is both the normal adaptive-parallelism selector (Table 5)
    and the re-selection entry point of the recovery path
    (:mod:`repro.resilience.recovery`): because P1/P2 keep identical
    token feeding and one parameter placement (P1 all-gathers the
    column shards P2 computes on; ``tests/test_parallel_functional.py::
    TestParameterPlacement::test_switching_moves_no_parameter``), the
    system can re-run this after a rank failure and switch without
    moving a parameter.
    """
    costs = [strategy_cost(cfg, topo, s, training=training,
                           a2a_candidates=a2a_candidates)
             for s in available_strategies(cfg)]
    return min(costs, key=lambda c: c.total_time)
