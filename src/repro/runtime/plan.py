"""Full MoE-layer step planning: features -> per-stage times -> total.

Composes every cost model into the per-iteration time of one MoE layer
on the simulated cluster, with the exact feature toggles of the paper's
Figure 23 breakdown:

(1) Fairseq baseline — dense kernels, linear All-to-All, no overlap,
    raw ``(W, dE, dC, M)`` expert layout;
(2) + Tutel fast kernels (sparse encode/decode);
(3) + adaptive pipelining (joint choice of All-to-All algorithm and
    pipelining degree via the event simulator);
(4) + Flexible All-to-All (scale-independent ``(dE, C, M)`` layout);
(5) + adaptive parallelism switching (the P1/P2 choice of
    :func:`repro.parallel.strategy.best_strategy`);
(6) computation-only view (non-overlapped compute share).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.gemm import expert_ffn_time
from repro.cluster.topology import ClusterTopology
from repro.collectives.schedule import A2AAlgorithm
from repro.core.config import MoEConfig
from repro.parallel.strategy import (
    Parallelism,
    best_strategy,
    build_segment_spec,
    param_comm_time,
)
from repro.pipeline.schedule import (
    PipelineStrategy,
    all_strategies,
    segment_time,
)
from repro.runtime.kernels import encode_decode_time, gating_time

__all__ = [
    "ExecutionFeatures",
    "FAIRSEQ_FEATURES",
    "TUTEL_FEATURES",
    "MoEStepBreakdown",
    "choose_parallelism",
    "moe_step_time",
]


@dataclass(frozen=True)
class ExecutionFeatures:
    """Feature toggles selecting an execution mode.

    ``pipeline_strategy`` pins a static strategy when adaptive
    pipelining is off (the Fairseq baseline is degree 1 + linear).
    ``parallelism`` pins a static strategy when adaptive parallelism
    switching is off and ``r > 1``.
    """

    name: str = "custom"
    fast_kernels: bool = True
    flexible_a2a: bool = True
    adaptive_pipelining: bool = True
    adaptive_parallelism: bool = True
    pipeline_strategy: PipelineStrategy = PipelineStrategy(
        degree=1, algorithm=A2AAlgorithm.LINEAR)
    parallelism: Parallelism = Parallelism.P1_EP_DP

    def with_(self, **overrides) -> "ExecutionFeatures":
        return replace(self, **overrides)


FAIRSEQ_FEATURES = ExecutionFeatures(
    name="fairseq", fast_kernels=False, flexible_a2a=False,
    adaptive_pipelining=False, adaptive_parallelism=False)

TUTEL_FEATURES = ExecutionFeatures(name="tutel")


@dataclass(frozen=True)
class MoEStepBreakdown:
    """Per-stage times (seconds) of one MoE layer iteration."""

    gate: float
    encode: float
    decode: float
    segment: float            # overlapped a2a+expert+a2a makespan
    a2a_exposed: float        # segment minus compute (communication share)
    expert_compute: float     # non-overlapped expert compute
    param_comm: float         # P1 all-gather / reduce-scatter traffic
    parallelism: Parallelism
    pipeline_strategy: PipelineStrategy

    @property
    def total(self) -> float:
        return (self.gate + self.encode + self.decode + self.segment
                + self.param_comm)

    @property
    def compute_only(self) -> float:
        """Curve (6) of Figure 23: everything except exposed comm."""
        return (self.gate + self.encode + self.decode
                + self.expert_compute)


def choose_parallelism(cfg: MoEConfig, topo: ClusterTopology,
                       features: ExecutionFeatures,
                       training: bool = True) -> Parallelism:
    """Resolve the parallelism for this iteration.

    With ``r == 1`` both hybrids collapse into plain EP (Figure 13).
    A static mode pins ``features.parallelism`` when ``r > 1``;
    otherwise the cheapest admissible strategy wins — the O(1)
    inline-router decision.
    """
    if cfg.expert_shards > 1 and not features.adaptive_parallelism:
        return features.parallelism
    return best_strategy(cfg, topo, training).strategy


def moe_step_time(cfg: MoEConfig, topo: ClusterTopology,
                  features: ExecutionFeatures,
                  training: bool = True) -> MoEStepBreakdown:
    """Plan and time one MoE layer iteration under an execution mode."""
    parallelism = choose_parallelism(cfg, topo, features, training)
    spec = build_segment_spec(cfg, parallelism, features.flexible_a2a)

    if features.adaptive_pipelining:
        candidates = all_strategies()
    else:
        candidates = [features.pipeline_strategy]
    chosen = None
    best_time = float("inf")
    for strategy in candidates:
        elapsed = segment_time(spec, topo, strategy, training)
        if elapsed < best_time:
            best_time = elapsed
            chosen = strategy
    assert chosen is not None

    gate = gating_time(cfg, topo.gpu)
    encode, decode = encode_decode_time(cfg, topo.gpu,
                                        fast=features.fast_kernels)
    kernel_factor = 2.0 if training else 1.0
    gate *= kernel_factor
    encode *= kernel_factor
    decode *= kernel_factor

    expert_compute = expert_ffn_time(topo.gpu, spec.expert_batch,
                                     spec.expert_rows, spec.model_dim,
                                     spec.hidden_dim, backward=training)
    param_comm = param_comm_time(cfg, topo, parallelism, training)

    return MoEStepBreakdown(
        gate=gate, encode=encode, decode=decode, segment=best_time,
        a2a_exposed=max(0.0, best_time - expert_compute),
        expert_compute=expert_compute, param_comm=param_comm,
        parallelism=parallelism, pipeline_strategy=chosen)
