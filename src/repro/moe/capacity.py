"""Dynamic capacity-factor semantics (paper Section 4.1, Figure 16).

The ``capacity_factor`` argument of the MoE layer API controls how the
runtime capacity is chosen each iteration:

* ``x > 0`` — ``x`` is used directly as the capacity factor;
* ``x == 0`` — the capacity factor adapts to the *minimum* value that
  drops no tokens for the current routing;
* ``x < 0`` — same adaptive behaviour, but ``-x`` is an upper bound:
  any exceeding value is clamped to ``-x``.

The needed capacity at runtime (the y-axis of paper Figure 1) is the
longest expert queue produced by the gating function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import expert_capacity

__all__ = [
    "CapacityPolicy",
    "needed_capacity",
    "needed_capacity_factor",
    "resolve_capacity",
]


def needed_capacity(idxs: np.ndarray, num_experts: int) -> int:
    """Longest expert queue for the given ``(k, T)`` assignments."""
    if idxs.size == 0:
        return 1
    counts = np.bincount(idxs.reshape(-1), minlength=num_experts)
    return max(1, int(counts.max()))


def needed_capacity_factor(idxs: np.ndarray, num_experts: int,
                           tokens: int) -> float:
    """Smallest ``f`` such that Equation (1) capacity drops nothing.

    Inverts ``dC = k * f * T / E``: ``f = dC_needed * E / (k * T)``.
    This is the quantity plotted in paper Figure 1.
    """
    k = idxs.shape[0]
    if tokens < 1 or k < 1:
        raise ValueError("tokens and k must be >= 1")
    return needed_capacity(idxs, num_experts) * num_experts / (k * tokens)


@dataclass(frozen=True)
class CapacityPolicy:
    """Capacity behaviour selected by the ``capacity_factor`` argument."""

    capacity_factor: float = 1.0

    @property
    def upper_bound(self) -> float | None:
        """Upper bound on the adaptive factor (None = unbounded)."""
        if self.capacity_factor < 0:
            return -self.capacity_factor
        return None


def resolve_capacity(policy: CapacityPolicy, idxs: np.ndarray,
                     num_experts: int, tokens: int,
                     top_k: int) -> tuple[int, float]:
    """Runtime capacity ``dC`` and the effective factor ``f``.

    Implements Figure 16 exactly: a positive ``capacity_factor`` is
    applied through Equation (1); zero adapts to the minimum lossless
    value; negative adapts with ``-x`` as the cap.
    """
    if policy.capacity_factor > 0:
        f = policy.capacity_factor
        return expert_capacity(top_k, f, tokens, num_experts), f

    f = needed_capacity_factor(idxs, num_experts, tokens)
    bound = policy.upper_bound
    if bound is not None and f > bound:
        f = bound
        return expert_capacity(top_k, f, tokens, num_experts), f
    # Unbounded adaptive mode: the exact needed queue length is used,
    # not the Equation (1) rounding of the implied factor.
    cap = needed_capacity(idxs, num_experts)
    if not math.isfinite(f):
        raise AssertionError("capacity factor must be finite")
    return cap, f
