"""Functional single-process MoE layer.

Composes the gating, capacity and encode/decode pieces into the full
forward pass of Figure 2 (gate -> dispatch -> expert fflayer ->
combine), without distribution.  The expert fflayer is the fused
kernel of :mod:`repro.moe.ffn`, ragged over the routing's occupancy.
The multi-rank forwards that exercise Flexible All-to-All live in
:mod:`repro.moe.distributed` and :mod:`repro.parallel.functional`; the
trainable version with autograd lives in :mod:`repro.nn.moe`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.moe.capacity import CapacityPolicy
from repro.moe.encode import dense_decode, dense_encode, fast_decode, fast_encode
from repro.moe.ffn import ffn_forward_arrays
from repro.moe.gating import (
    RoutingCriteria,
    cosine_gate_logits,
    linear_gate_logits,
    route,
    softmax,
)
from repro.moe.metrics import routing_stats
from repro.obs import CAT_MOE, get_observer, get_run
from repro.obs import span as _span

__all__ = [
    "ExpertParams",
    "MoELayerParams",
    "MoEOutput",
    "moe_layer_forward",
]


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

    @staticmethod
    def init(num_experts: int, model_dim: int, hidden_dim: int,
             rng: np.random.Generator, scale: float | None = None
             ) -> "ExpertParams":
        """He-style initialization of all experts."""
        s1 = scale or (2.0 / model_dim) ** 0.5
        s2 = scale or (2.0 / hidden_dim) ** 0.5
        return ExpertParams(
            w1=rng.normal(0.0, s1, (num_experts, model_dim, hidden_dim)),
            w2=rng.normal(0.0, s2, (num_experts, hidden_dim, model_dim)),
        )


@dataclass
class MoELayerParams:
    """All parameters + routing configuration of one MoE layer."""

    experts: ExpertParams
    gate_weight: np.ndarray                  # (M, E) for the linear router
    top_k: int = 2
    capacity: CapacityPolicy = field(
        default_factory=lambda: CapacityPolicy(1.0))
    router: str = "linear"                   # or "cosine"
    cosine_proj: np.ndarray | None = None    # (M, D)
    cosine_embed: np.ndarray | None = None   # (E, D)
    cosine_temperature: float = 0.3
    normalize_gate: bool = True
    batch_prioritized: bool = False
    activation: str = "gelu"
    use_fast_encode: bool = True

    @staticmethod
    def init(num_experts: int, model_dim: int, hidden_dim: int,
             rng: np.random.Generator, router: str = "linear",
             router_dim: int = 256, **kwargs) -> "MoELayerParams":
        experts = ExpertParams.init(num_experts, model_dim, hidden_dim, rng)
        gate = rng.normal(0.0, model_dim ** -0.5, (model_dim, num_experts))
        cosine_proj = cosine_embed = None
        if router == "cosine":
            cosine_proj = rng.normal(0.0, model_dim ** -0.5,
                                     (model_dim, router_dim))
            cosine_embed = rng.normal(0.0, router_dim ** -0.5,
                                      (num_experts, router_dim))
        return MoELayerParams(experts=experts, gate_weight=gate,
                              router=router, cosine_proj=cosine_proj,
                              cosine_embed=cosine_embed, **kwargs)


@dataclass
class MoEOutput:
    """Forward results plus the diagnostics the adaptive runtime uses."""

    output: np.ndarray
    l_aux: float
    crit: RoutingCriteria
    effective_capacity_factor: float

    @property
    def dropped_fraction(self) -> float:
        return self.crit.dropped_fraction()


def _gate_logits(x: np.ndarray, params: MoELayerParams) -> np.ndarray:
    if params.router == "linear":
        return linear_gate_logits(x, params.gate_weight)
    if params.router == "cosine":
        if params.cosine_proj is None or params.cosine_embed is None:
            raise ValueError("cosine router requires proj and embed params")
        return cosine_gate_logits(x, params.cosine_proj,
                                  params.cosine_embed,
                                  params.cosine_temperature)
    raise ValueError(f"unknown router {params.router!r}")


def moe_layer_forward(x: np.ndarray, params: MoELayerParams,
                      top_k: int | None = None,
                      capacity: CapacityPolicy | None = None) -> MoEOutput:
    """Full single-process MoE layer forward pass.

    ``top_k`` and ``capacity`` may be overridden per call — this is the
    dynamic top-ANY / dynamic capacity-factor feature of Section 4.1.
    """
    if x.ndim != 2:
        raise ValueError(f"x must be (T, M), got {x.shape}")
    k = top_k if top_k is not None else params.top_k
    policy = capacity if capacity is not None else params.capacity

    with _span("gate", CAT_MOE):
        probs = softmax(_gate_logits(x, params))
        crit, l_aux, eff_f = route(probs, k, policy, params.normalize_gate,
                                   params.batch_prioritized)

    encode = fast_encode if params.use_fast_encode else dense_encode
    decode = fast_decode if params.use_fast_encode else dense_decode
    with _span("encode", CAT_MOE):
        dispatched = encode(x, crit)
    with _span("expert_ffn", CAT_MOE):
        expert_out, _ = ffn_forward_arrays(
            dispatched, params.experts.w1, params.experts.w2,
            params.activation, rows=crit.occupancy, save=False)
    with _span("decode", CAT_MOE):
        output = decode(expert_out, crit)

    ob = get_observer()
    run = get_run()
    if ob is not None or run is not None:
        stats = routing_stats(crit, probs)
        if ob is not None:
            ob.record_routing(stats)
        if run is not None:
            run.emit("routing", data=stats.event_payload(0))
    return MoEOutput(output=output, l_aux=l_aux, crit=crit,
                     effective_capacity_factor=eff_f)
