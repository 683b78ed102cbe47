"""Trainable MoE layer module (the API of paper Figure 8, trainable).

:func:`route` is the one routing decision (paper Figure 8's
``moe.top_k_routing``): top-k selection, capacity assignment and BPR
ordering, computed outside the tape, plus the gate values and the GShard
load-balancing auxiliary loss on arrays.  :class:`MoE` calls it on every
forward and, when it trains, takes the gate values and the loss as two
tape ops, so the router trains end to end through :func:`moe_combine`;
the multi-rank forwards and :mod:`repro.api` call it too.  Supports the
dynamic features of Section 4.1: per-call ``top_k`` ("top-ANY") and
dynamic capacity-factor semantics, plus the cosine router of
Equation (2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.autograd.functional import exp, softmax
from repro.autograd.moe_ops import (
    expert_ffn,
    moe_combine,
    moe_dispatch,
    route_gates,
    route_l_aux,
)
from repro.autograd.tensor import Tensor, as_tensor
from repro.core.substrate import default_dtype
from repro.moe import gating
from repro.moe.capacity import CapacityPolicy, resolve_capacity
from repro.moe.gating import RoutingCriteria, compute_locations, select_top_k
from repro.moe.metrics import routing_stats
from repro.moe.metrics import RoutingStats
from repro.nn.modules import Linear, Module
from repro.obs import MOE_STAGES, get_run, stage

__all__ = ["MoE", "Routing", "route"]

# The four stage clocks of a forward, in the order it runs them.
_GATE, _DISPATCH, _EXPERT_FFN, _COMBINE = MOE_STAGES


@dataclass
class Routing:
    """What :func:`route` decides for one batch (paper Figure 8's
    ``crit, l_aux`` plus the capacity factor Figure 16 settled on).

    ``gates`` and ``l_aux`` are computed on first read.  Every scalar
    operand is a Python number, so both keep ``gate_probs``' dtype.
    """

    gate_probs: np.ndarray
    order: np.ndarray      # (T, k): column j is each token's j-th expert
    # Its gates are the kept mask: 1 keeps a slot in the kernels even
    # when its gate value underflows to 0, so that gate's gradient flows.
    crit: RoutingCriteria
    # None when the caller fixed ``dC``: no factor was resolved.
    effective_capacity_factor: float | None

    @cached_property
    def selected(self) -> np.ndarray:
        """``(k, T)`` probabilities of each token's chosen experts."""
        t = self.order.shape[0]
        return self.gate_probs[np.arange(t)[:, None], self.order].T

    @cached_property
    def gates(self) -> np.ndarray:
        """``(k, T)`` selected gate values.  Normalisation only applies
        for k > 1 (GShard); with k == 1 the raw probability scales the
        expert output (Switch-style), which is the path the router's
        gradient flows through."""
        gates = self.selected
        if gates.shape[0] > 1:
            gates = gates / (gates.sum(axis=0, keepdims=True) + 1e-12)
        return gates

    @cached_property
    def routed_frac(self) -> np.ndarray:
        """``(E,)`` share of the batch whose top-1 expert is ``e``."""
        t, e = self.gate_probs.shape
        return (np.bincount(self.crit.idxs[0], minlength=e)
                / max(t, 1)).astype(self.gate_probs.dtype)

    @cached_property
    def l_aux(self) -> np.floating:
        """GShard load-balancing loss, ``E * sum_e mean_prob(e) *
        routed_frac(e)`` over the top-1 assignments: 1.0 under uniform
        routing, 0.0 for an empty batch."""
        t, e = self.gate_probs.shape
        return (self.gate_probs.sum(axis=0) * (1.0 / max(t, 1))
                * self.routed_frac).sum() * e


def route(gate_probs: np.ndarray, top_k: int,
          capacity: int | CapacityPolicy,
          batch_prioritized: bool = False) -> Routing:
    """The routing decision: top-k selection, capacity, queue positions,
    gate values and the auxiliary loss, from one sort.

    Parameters
    ----------
    gate_probs:
        ``(T, E)`` softmax routing probabilities.
    top_k:
        Fan-out ``k``; any value in ``[1, E]`` ("top-ANY", Section 4.1).
    capacity:
        Either a fixed ``dC`` per expert (the multi-rank forwards, whose
        buffers are sized before routing) or a :class:`CapacityPolicy`
        resolved against this batch's own selection (Figure 16).
        Routes whose queue position reaches ``dC`` are dropped.
    batch_prioritized:
        Enable BPR: capacity slots assigned in order of decreasing
        top-1 confidence (paper Figure 25).

    Array callers decode with ``crit.with_gates(gates)``;
    :meth:`MoE.forward`'s two router tape ops output these arrays.
    """
    t, e = gate_probs.shape
    if not 1 <= top_k <= e:
        raise ValueError(f"top_k must be in [1, {e}], got {top_k}")
    order = select_top_k(gate_probs, top_k)
    idxs = order.T.copy()
    effective_f = None
    if isinstance(capacity, CapacityPolicy):
        capacity, effective_f = resolve_capacity(capacity, idxs, e,
                                                 tokens=t, top_k=top_k)
    priority = gate_probs.max(axis=1) if batch_prioritized else None
    locations = compute_locations(idxs, e, priority=priority)
    crit = RoutingCriteria(
        idxs=idxs, locations=locations,
        gates=(locations < capacity).astype(gate_probs.dtype),
        capacity=capacity, num_experts=e)
    return Routing(gate_probs, order, crit, effective_f)


def _draw_experts(rng: np.random.Generator, scale: float,
                  shape: tuple[int, int, int]) -> np.ndarray:
    """``rng.normal(0, scale, shape)`` cast to the substrate dtype, drawn
    one expert slab at a time: the generator fills in C order, so the
    values and its final state are bitwise those of the one-shot draw,
    and no ``shape``-sized float64 temporary is made."""
    out = np.empty(shape, default_dtype())
    for slab in out:
        slab[...] = rng.normal(0.0, scale, shape[1:])
    return out


class MoE(Module):
    """Trainable mixture-of-experts feed-forward layer.

    Parameters
    ----------
    model_dim / hidden_dim:
        Expert fflayer dimensions (M and V).
    num_experts:
        Global expert count E.
    top_k:
        Default routing fan-out (overridable per call).
    capacity_factor:
        Figure 16 semantics — positive fixed, 0 adaptive, negative
        adaptive with bound.
    router:
        ``"linear"`` or ``"cosine"`` (Equation 2).
    batch_prioritized:
        Assign capacity by confidence instead of batch order (BPR).
    """

    def __init__(self, model_dim: int, hidden_dim: int, num_experts: int,
                 rng: np.random.Generator, top_k: int = 2,
                 capacity_factor: float = 1.0, router: str = "linear",
                 router_dim: int = 256, activation: str = "gelu",
                 batch_prioritized: bool = False) -> None:
        if num_experts < 1:
            raise ValueError(f"num_experts must be >= 1, got {num_experts}")
        if not 1 <= top_k <= num_experts:
            raise ValueError(
                f"top_k must be in [1, {num_experts}], got {top_k}")
        self.model_dim = model_dim
        self.hidden_dim = hidden_dim
        self.num_experts = num_experts
        self.top_k = top_k
        self.capacity_policy = CapacityPolicy(capacity_factor)
        self.router = router
        self.activation = activation
        self.batch_prioritized = batch_prioritized

        s1 = (2.0 / model_dim) ** 0.5
        s2 = (2.0 / hidden_dim) ** 0.5
        self.w1 = Tensor(_draw_experts(rng, s1, (num_experts, model_dim,
                                                 hidden_dim)),
                         requires_grad=True, name="moe.w1")
        self.w2 = Tensor(_draw_experts(rng, s2, (num_experts, hidden_dim,
                                                 model_dim)),
                         requires_grad=True, name="moe.w2")
        if router == "linear":
            self.gate = Linear(model_dim, num_experts, rng, bias=False)
        elif router == "cosine":
            self.cosine_proj = Linear(model_dim, router_dim, rng,
                                      bias=False)
            self.expert_embed = Tensor(
                rng.normal(0.0, router_dim ** -0.5,
                           (num_experts, router_dim)),
                requires_grad=True, name="moe.expert_embed")
            self.log_temperature = Tensor(np.log(0.3), requires_grad=True,
                                          name="moe.log_tau")
        else:
            raise ValueError(f"unknown router {router!r}")
        # What forward() reads to choose between the taped and the array
        # gate: a tuple built once, not parameters(), which walks every
        # attribute on each call.
        self._grad_sources = (self.w1, self.w2) + (
            (self.gate.weight,) if router == "linear" else
            (self.cosine_proj.weight, self.expert_embed,
             self.log_temperature))

        # The latest forward's record; the layer publishes nothing —
        # the loop that drives it does (repro.obs.loop.LoopTelemetry).
        # Capacity factor resolve_capacity settled on for that forward.
        self.last_effective_capacity_factor: float | None = None
        # Full routing summary (needed capacity factor — Figure 1 —
        # dropped fraction, load): the loops' run events, gauges and
        # alert rules read this, so it is computed unconditionally.
        self.last_routing_stats: RoutingStats | None = None
        # Raw routing decisions of the latest forward — the routing
        # provenance recorder (repro.obs.routing) folds these into
        # per-source dispatch counts and inter-layer affinity matrices.
        self.last_routing_criteria: RoutingCriteria | None = None

        # Experts masked out of gating (graceful degradation path).
        self.failed_experts: set[int] = set()

    # -- graceful degradation ---------------------------------------------

    def mask_expert(self, expert: int) -> None:
        """Mask a dead expert out of gating; survivors take over.

        The mask zeroes the expert's softmax probability, so top-k
        selection never picks it and (for k > 1) the surviving gate
        values renormalize automatically — tokens are re-routed, not
        dropped.  At least one expert must survive.
        Records nothing: a checkpoint restore re-applies a mask this
        way, a failure goes through :meth:`fail_expert`.
        """
        if not 0 <= expert < self.num_experts:
            raise ValueError(
                f"expert {expert} out of range for {self.num_experts}")
        if len(self.failed_experts | {expert}) >= self.num_experts:
            raise ValueError(
                "cannot fail the last surviving expert; "
                "restore from checkpoint instead")
        self.failed_experts.add(expert)

    def fail_expert(self, expert: int) -> None:
        """:meth:`mask_expert` plus the run's ``fault`` event."""
        self.mask_expert(expert)
        run = get_run()
        if run is not None:
            run.emit("fault", data={"kind": "expert_failure",
                                    "expert": expert})

    def restore_expert(self, expert: int) -> None:
        """Readmit a previously failed expert to gating."""
        self.failed_experts.discard(expert)
        run = get_run()
        if run is not None:
            run.emit("recovery", data={"kind": "expert_restored",
                                       "expert": expert})

    # -- routing ----------------------------------------------------------

    def gate_logits(self, x: Tensor) -> Tensor:
        """The router's ``(T, E)`` pre-softmax scores: ``x @ Wg``, or
        Equation (2)'s ``cos(W x, M) / tau`` with ``tau`` floored at
        0.01.  The multi-rank forwards route with it too."""
        if self.router == "linear":
            return self.gate(x)
        projected = self.cosine_proj(x)
        p_norm = (projected * projected).sum(axis=1, keepdims=True) ** 0.5
        e_norm = ((self.expert_embed * self.expert_embed)
                  .sum(axis=1, keepdims=True) ** 0.5)
        cosine = (projected @ self.expert_embed.T) / (p_norm @ e_norm.T
                                                      + 1e-12)
        if float(np.exp(self.log_temperature.data)) <= 0.01:
            # Clamped regime: tau is pinned at the floor (paper: "set
            # lowest 0.01"), no gradient flows into it.
            return cosine * (1.0 / 0.01)
        return cosine * exp(-self.log_temperature)

    def forward(self, x: Tensor, top_k: int | None = None,
                capacity_factor: float | None = None
                ) -> tuple[Tensor, Tensor]:
        """Returns ``(output, l_aux)``.

        Both are differentiable when something needs a gradient: ``x``
        or one of the layer's own tensors.  When nothing does (a frozen
        layer on a constant input — serving) the softmax, the selected
        gates and ``l_aux`` are computed on arrays by the same ops in
        the same order, so both come out bitwise equal as constant
        tensors; dispatch, FFN, combine and a linear router's GEMM skip
        :meth:`Tensor.from_op` too unless a profiler prices them.
        """
        if x.ndim != 2:
            raise ValueError(f"x must be (T, M), got {x.shape}")
        if x.shape[0] < 1:
            raise ValueError(f"x must hold >= 1 token, got {x.shape}")
        k = top_k if top_k is not None else self.top_k
        policy = (CapacityPolicy(capacity_factor)
                  if capacity_factor is not None else self.capacity_policy)
        taped = x.requires_grad or any(p.requires_grad
                                       for p in self._grad_sources)

        with stage(_GATE):
            if taped:
                logits = self.gate_logits(x)
            elif self.router == "linear" and not Tensor.needs_tape(x):
                # Frozen and unprofiled: the same GEMM, no tape node.
                logits = x.data @ self.gate.weight.data
            else:
                logits = self.gate_logits(x).data
            if self.failed_experts:
                # Graceful degradation: a large negative logit zeroes
                # the dead experts' probabilities, so selection and the
                # aux loss see only survivors; k shrinks if needed.
                mask = np.zeros((1, self.num_experts))
                mask[0, sorted(self.failed_experts)] = -1e30
                # As a taped add makes it: the substrate dtype.
                logits = logits + as_tensor(mask).data
                k = min(k, self.num_experts - len(self.failed_experts))
            if taped:
                probs = softmax(logits, axis=1)
                gate_probs = probs.data
            else:
                gate_probs = gating.softmax(logits, axis=1)
            routing = route(gate_probs, k, policy, self.batch_prioritized)
            crit, dtype = routing.crit, gate_probs.dtype
            self.last_effective_capacity_factor = \
                routing.effective_capacity_factor
            selected = (route_gates(probs, routing) if taped
                        else Tensor(routing.gates, dtype=dtype))

        self.last_routing_stats = routing_stats(crit, gate_probs)
        self.last_routing_criteria = crit

        with stage(_DISPATCH):
            dispatched = moe_dispatch(x, crit)
        with stage(_EXPERT_FFN):
            # Fused op: act(x @ w1) @ w2 in one tape node over the
            # occupied prefix of each expert's capacity slab.
            expert_out = expert_ffn(dispatched, self.w1, self.w2,
                                    self.activation, rows=crit.occupancy)
        with stage(_COMBINE):
            output = moe_combine(expert_out, selected, crit)

        l_aux = (route_l_aux(probs, routing) if taped
                 else Tensor(routing.l_aux, dtype=dtype))
        return output, l_aux
