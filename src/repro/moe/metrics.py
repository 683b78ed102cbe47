"""Routing diagnostics for MoE layers.

The observability layer a production MoE stack needs: expert load
distributions, balance indices, drop statistics and routing-confidence
summaries.  These are the quantities behind the paper's dynamic-
workload analysis (Figure 1 plots the implied needed capacity; the aux
loss of GShard optimizes the load-balance index reported here).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from repro.moe.gating import RoutingCriteria

__all__ = [
    "RoutingStats",
    "routing_stats",
    "expert_load",
    "load_imbalance",
    "load_gini",
    "routing_entropy",
]


def expert_load(crit: RoutingCriteria) -> np.ndarray:
    """Tokens routed to each expert (``(E,)`` counts), dropped slots
    included."""
    return crit.plan.load


def load_imbalance(crit: RoutingCriteria,
                   load: np.ndarray | None = None) -> float:
    """Max-over-mean expert load (1.0 = perfectly balanced).

    This is the quantity the capacity factor must cover: the needed
    capacity factor of Figure 1 equals this ratio for top-1 routing.
    Degenerate inputs stay finite: zero routed tokens (empty batch)
    reads as perfectly balanced, never a 0/0 NaN.  ``load`` is
    :func:`expert_load` of ``crit`` when the caller already holds it.
    """
    if load is None:
        load = expert_load(crit)
    # Python ints: counts below 2**53 sum and divide exactly as
    # np.mean's float64 arithmetic does, without E-element array ops.
    counts = load.tolist()
    total = sum(counts)
    if total == 0:
        return 1.0
    return max(counts) / (total / len(counts))


def load_gini(load: np.ndarray) -> float:
    """Gini coefficient of an expert-load vector of token counts
    (0 = balanced).

    The health detectors' imbalance signal: 0.0 for uniform usage,
    approaching ``1 - 1/E`` when one expert takes everything.  Defined
    (0.0) for the degenerate cases — a single expert, zero routed
    tokens, or an empty vector — so online monitors never see NaN.
    """
    # Whole counts below 2**53: every sum is exact, so the one rounding
    # is the final division, as in float64.
    ordered = sorted(np.asarray(load).reshape(-1).tolist())
    n, total = len(ordered), sum(ordered)
    if n <= 1 or total <= 0:
        return 0.0
    # Mean absolute difference form via the sorted-rank identity.
    weighted = sum(rank * count for rank, count in enumerate(ordered, 1))
    return float((2 * weighted - (n + 1) * total) / (n * total))


def routing_entropy(crit: RoutingCriteria,
                    load: np.ndarray | None = None) -> float:
    """Shannon entropy of the expert load distribution, normalized by
    ``log(E)``.

    1.0 means uniform expert usage; 0 means collapse onto
    a single expert — the failure mode the auxiliary loss prevents.
    Degenerate inputs return defined values instead of NaN: zero routed
    tokens give 0.0 (no evidence of spread), and a single-expert layer
    gives 1.0 normalized (one expert *is* uniform usage; the 0/log(1)
    division is never evaluated).  ``load`` is :func:`expert_load` of
    ``crit`` when the caller already holds it.
    """
    if load is None:
        load = expert_load(crit)
    total = load.sum()
    if total == 0:
        return 0.0
    nz = load[load > 0] / total
    entropy = float(-(nz * np.log(nz)).sum())
    if crit.num_experts <= 1:
        return 1.0
    return float(entropy / np.log(crit.num_experts))


@dataclass(frozen=True, eq=False)
class RoutingStats:
    """One routing decision's diagnostic summary.

    ``expert_load`` is the per-expert routed-token count (dropped slots
    included) — the series the run registry's utilization heatmap and
    the dead-expert health detector consume.  The fields every batch
    reads (counts, capacity, drops, imbalance) are computed with the
    summary; ``routing_entropy``, ``load_gini`` (the Gini coefficient of
    ``expert_load``, 0 = balanced) and ``mean_top1_confidence`` on first
    read, from the decision it holds, and then kept.  Two summaries are
    equal when every field, lazy ones included, is.
    """

    num_tokens: int
    num_experts: int
    top_k: int
    capacity: int
    dropped_fraction: float
    load_imbalance: float
    needed_capacity: int
    expert_load: tuple[int, ...]
    _crit: RoutingCriteria = field(repr=False)
    #: ``(·, T)``: each token's top-1 confidence is its column's max.
    _top1_of: np.ndarray = field(repr=False)

    #: The fields computed on first read.
    LAZY = ("routing_entropy", "load_gini", "mean_top1_confidence")

    @cached_property
    def routing_entropy(self) -> float:
        return routing_entropy(self._crit, load=expert_load(self._crit))

    @cached_property
    def load_gini(self) -> float:
        return load_gini(expert_load(self._crit))

    @cached_property
    def mean_top1_confidence(self) -> float:
        """Mean top-1 gate probability (``gate_probs`` when given, else
        the selected-slot gates); 0.0 for an empty batch."""
        t = self.num_tokens
        if t == 0:
            return 0.0  # a mean over zero tokens would be NaN
        # A column max over a contiguous copy of the probabilities'
        # transpose: the same elements as their row max, ~3x faster
        # than max(axis=1) over short rows.
        top1 = np.ascontiguousarray(self._top1_of).max(axis=0)
        # np.mean's arithmetic without its Python-level wrapper: the sum
        # in the array's dtype, divided in float64, rounded back.
        return float(top1.dtype.type(float(top1.sum()) / t))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingStats):
            return NotImplemented
        names = [f.name for f in fields(self)
                 if not f.name.startswith("_")] + list(self.LAZY)
        return all(getattr(self, n) == getattr(other, n) for n in names)

    @property
    def needed_capacity_factor(self) -> float:
        """Capacity factor that would have kept every token (f of
        Figure 1); 0.0 for an empty batch."""
        slots = self.num_tokens * self.top_k
        if slots <= 0:
            return 0.0
        return self.needed_capacity * self.num_experts / slots

    def event_payload(self, layer: int) -> dict:
        """The run registry's ``routing`` event for this layer."""
        return {"layer": layer,
                "entropy": self.routing_entropy,
                "gini": self.load_gini,
                "dropped_fraction": self.dropped_fraction,
                "needed_capacity_factor": self.needed_capacity_factor,
                "expert_load": list(self.expert_load)}


def routing_stats(crit: RoutingCriteria,
                  gate_probs: np.ndarray | None = None) -> RoutingStats:
    """The diagnostic summary of one routing decision.

    ``gate_probs`` (the ``(T, E)`` softmax output) gives the mean top-1
    confidence — the priority signal batch prioritized routing sorts
    by; without it the selected-slot gates are used instead.  The
    summary holds ``crit`` and that array, and reads them only when a
    lazy field is read.  Every load statistic reads one
    :func:`expert_load` vector.
    """
    k, t = crit.idxs.shape
    e = crit.num_experts
    if gate_probs is not None and gate_probs.shape != (t, e):
        raise ValueError(
            f"gate_probs must be (T={t}, E={e}), got {gate_probs.shape}")
    load = expert_load(crit)
    return RoutingStats(
        num_tokens=t, num_experts=e, top_k=k, capacity=crit.capacity,
        dropped_fraction=crit.dropped_fraction(),
        load_imbalance=load_imbalance(crit, load),
        needed_capacity=crit.plan.needed_capacity,
        expert_load=tuple(load.tolist()), _crit=crit,
        _top1_of=gate_probs.T if gate_probs is not None else crit.gates)
