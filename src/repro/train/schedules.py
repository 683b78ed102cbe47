"""Dynamic sparsity schedules (paper Section 4.1).

Tutel's top-ANY gating lets ``k`` change at every iteration, and the
capacity factor likewise: "users can leverage this feature to
dynamically fine-tune sparsity of MoE layers".  These schedules are the
training-side realization: a callable ``step -> value`` that the
trainer applies to every MoE layer before each iteration.

Typical uses:

* anneal ``k`` from 2 to 1: dense-ish routing early (stable training)
  and cheap top-1 inference-matched routing late;
* warm up the capacity factor downward as routing becomes balanced,
  tracking the needed capacity of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.moe.capacity import CapacityPolicy
from repro.nn.models import MoEClassifier

__all__ = [
    "ConstantSchedule",
    "StepSchedule",
    "apply_sparsity_schedules",
]


@dataclass(frozen=True)
class ConstantSchedule:
    """Always the same value."""

    value: float

    def __call__(self, step: int) -> float:
        return self.value


@dataclass(frozen=True)
class StepSchedule:
    """Piecewise-constant: ``milestones[i] <= step`` selects values[i+1].

    ``StepSchedule(values=(2, 1), milestones=(100,))`` keeps k = 2 for
    the first 100 steps and k = 1 afterwards.
    """

    values: tuple[float, ...]
    milestones: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.milestones) + 1:
            raise ValueError(
                f"need len(values) == len(milestones) + 1, got "
                f"{len(self.values)} and {len(self.milestones)}")
        if list(self.milestones) != sorted(self.milestones):
            raise ValueError("milestones must be increasing")

    def __call__(self, step: int) -> float:
        index = sum(1 for m in self.milestones if step >= m)
        return self.values[index]


def apply_sparsity_schedules(model, step: int,
                             top_k: Callable[[int], float] | None = None,
                             capacity_factor: Callable[[int], float]
                             | None = None) -> None:
    """Apply schedules to every MoE layer of a classifier in place.

    ``top_k`` values are rounded to the nearest valid integer in
    ``[1, E]``; capacity factors pass through the Figure 16 semantics
    (so 0 / negative values select the adaptive modes).
    """
    if not isinstance(model, MoEClassifier):
        return
    for layer in model.moe_layers():
        if top_k is not None:
            k = int(round(top_k(step)))
            layer.top_k = min(max(k, 1), layer.num_experts)
        if capacity_factor is not None:
            layer.capacity_policy = CapacityPolicy(
                float(capacity_factor(step)))
