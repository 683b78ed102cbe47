"""Routing primitives for MoE layers (paper Sections 2.1, 4.1, 5.3.3).

* :func:`select_top_k` — top-k selection for any ``1 <= k <= E``
  ("top-ANY"),
* :func:`compute_locations` — capacity-queue positions, in batch order
  or, for batch prioritized routing (BPR), in decreasing order of
  routing confidence (paper Figure 25),
* :class:`RoutingCriteria` — the ``crit`` the encode/decode kernels
  consume.

Everything is dtype-preserving vectorized NumPy; tokens are rows of an
``(T, M)`` array.  The one routing decision that composes them, and the
routers that produce the logits, are :mod:`repro.nn.moe`'s
(:func:`repro.nn.moe.route`, :meth:`repro.nn.moe.MoE.gate_logits`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "softmax",
    "RoutingCriteria",
    "RoutePlan",
    "select_top_k",
    "compute_locations",
]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax over the last axis of ``(T, E)``
    ``logits`` (``axis`` 1 or -1).

    The row max is a column max over a contiguous copy of the
    transpose: the same elements (a max rounds nothing), one vectorized
    pass per column instead of one short reduction per row.  The sum
    stays a row reduction, whose summation order the bits depend on.
    """
    if axis not in (1, -1) or logits.ndim != 2:
        raise ValueError(f"softmax takes (T, E) logits over axis 1, got "
                         f"{logits.shape} over axis {axis}")
    shifted = np.subtract(logits, np.maximum.reduce(
        np.ascontiguousarray(logits.T))[:, None])
    np.exp(shifted, out=shifted)
    shifted /= np.add.reduce(shifted, axis=1, keepdims=True)
    return shifted


class RoutePlan(NamedTuple):
    """Where a routing decision's kept routes land, computed once and
    only indexed with by the kernels and metrics (paper Section 4.2)."""

    valid: np.ndarray      # (k, T) bool: the slot survived the capacity
    pos: np.ndarray        # kept routes' flat (k, T) indices, slot-major
    tokens: np.ndarray     # their token indices
    cells: np.ndarray      # their flat (E * dC) capacity cells
    bounds: list[int]      # slot s holds routes bounds[s]:bounds[s + 1]
    load: np.ndarray       # (E,) routes per expert, dropped slots counted
    occupancy: np.ndarray  # (E,) rows of each expert's slab in use
    needed_capacity: int   # smallest dC that drops nothing


def _route_plan(crit: "RoutingCriteria") -> RoutePlan:
    """Plan any criteria (gapped, negative or dropped locations); raise
    ``ValueError`` for an expert index outside ``[0, E)``, which would
    wrap into another expert's capacity cells."""
    idxs, locations, cap = crit.idxs, crit.locations, crit.capacity
    e = crit.num_experts
    k, t = idxs.shape
    experts, queue = idxs.reshape(-1), locations.reshape(-1)
    try:  # bincount rejects a negative index; one >= E lengthens it
        load = np.bincount(experts, minlength=e)
    except ValueError:
        load = None
    if load is None or load.size != e:
        raise ValueError(f"idxs must be in [0, {e})")
    # One compare: a negative position wraps past any capacity.
    valid = locations.astype(np.uint64) < cap
    pos = valid.reshape(-1).nonzero()[0]
    kept, queue = experts.take(pos), queue.take(pos)
    occupancy = np.zeros(e, dtype=locations.dtype)
    np.maximum.at(occupancy, kept, queue + 1)
    valid.setflags(write=False)
    load.setflags(write=False)
    occupancy.setflags(write=False)
    return RoutePlan(valid, pos, pos % max(t, 1), kept * cap + queue,
                     pos.searchsorted(np.arange(k + 1) * t).tolist(),
                     load, occupancy,
                     int(locations.max()) + 1 if locations.size else 1)


# The plan and what it is derived from: fixed once a criteria is built.
_FIXED = frozenset(("idxs", "locations", "capacity", "num_experts", "plan"))


@dataclass(init=False)
class RoutingCriteria:
    """The ``crit`` object produced by routing and consumed by
    encode/decode (paper Figure 8).

    Attributes
    ----------
    idxs:
        ``(k, T)`` int array in ``[0, E)`` — expert per slot per token.
    locations:
        ``(k, T)`` int array — the token's position in its expert's
        capacity queue.
    gates:
        ``(k, T)`` float array — routing weight for each slot
        (renormalized over the selected experts when k > 1).
    capacity:
        ``dC`` — capacity slots per expert on this rank.
    num_experts:
        ``E`` — global expert count.

    ``plan`` (a :class:`RoutePlan`) is computed once, when the criteria
    is built.  ``idxs`` / ``locations`` are read-only and, with
    ``capacity``, ``num_experts`` and ``plan``, cannot be reassigned, so
    the plan cannot go stale; ``gates`` stays assignable (the kernels
    read it live).
    """

    idxs: np.ndarray
    locations: np.ndarray
    gates: np.ndarray
    capacity: int
    num_experts: int

    def __init__(self, idxs: np.ndarray, locations: np.ndarray,
                 gates: np.ndarray, capacity: int, num_experts: int) -> None:
        # Straight into __dict__: __setattr__ refuses the fixed fields.
        vars(self).update(idxs=idxs, locations=locations, gates=gates,
                          capacity=capacity, num_experts=num_experts)
        # Two explicit checks: a chained `a != b != c` comparison skips
        # the a-vs-c case whenever a == b, letting a mis-shaped `gates`
        # slip through validation.
        if self.idxs.shape != self.locations.shape:
            raise ValueError(
                f"idxs shape {self.idxs.shape} != locations shape "
                f"{self.locations.shape}")
        if self.idxs.shape != self.gates.shape:
            raise ValueError(
                f"idxs shape {self.idxs.shape} != gates shape "
                f"{self.gates.shape}")
        if self.idxs.ndim != 2:
            raise ValueError("routing arrays must be (k, T)")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.num_experts < 1:
            raise ValueError("num_experts must be >= 1")
        if (self.idxs.dtype.kind not in "iu"
                or self.locations.dtype.kind not in "iu"):
            raise ValueError("idxs and locations must be integer arrays")
        vars(self)["plan"] = _route_plan(self)
        idxs.setflags(write=False)
        locations.setflags(write=False)

    def __setattr__(self, name: str, value: object) -> None:
        if name in _FIXED:
            raise AttributeError(f"{name} is fixed; use dataclasses.replace")
        object.__setattr__(self, name, value)

    def __setstate__(self, state: dict) -> None:
        # deepcopy / pickle hand back writable arrays: freeze, re-plan.
        self.__init__(**{f.name: state[f.name] for f in fields(self)})

    def with_gates(self, gates: np.ndarray) -> "RoutingCriteria":
        """This routing with other ``(k, T)`` gates, sharing the plan."""
        if gates.shape != self.gates.shape:
            raise ValueError(
                f"gates shape {gates.shape} != crit gates "
                f"{self.gates.shape}")
        live = object.__new__(RoutingCriteria)
        live.__dict__.update(self.__dict__, gates=gates)
        return live

    def routes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray, list[int]]:
        """``(pos, tokens, cells, gates, bounds)`` of the plan's kept
        routes less those whose gate is exactly 0 (not dispatched)."""
        plan = self.plan
        gates = self.gates.take(plan.pos)
        if np.logical_and.reduce(gates):  # no kept gate is 0
            return plan.pos, plan.tokens, plan.cells, gates, plan.bounds
        keep = gates != 0
        bounds = np.concatenate(([0], np.cumsum(keep)))[plan.bounds]
        return (plan.pos[keep], plan.tokens[keep], plan.cells[keep],
                gates[keep], bounds.tolist())

    @property
    def top_k(self) -> int:
        return self.idxs.shape[0]

    @property
    def num_tokens(self) -> int:
        return self.idxs.shape[1]

    @property
    def occupancy(self) -> np.ndarray:
        """(E,) ints — rows of each expert's capacity slab in use: 1 +
        its largest valid queue position, 0 for an idle expert.  Every
        kept token sits in this prefix of its expert's ``dC``-row slab,
        so the expert FFN multiplies only those rows (a gap-free queue
        makes it the kept-token count)."""
        return self.plan.occupancy

    def dropped_fraction(self) -> float:
        """Fraction of (token, slot) routes dropped by the capacity."""
        if self.locations.size == 0:
            return 0.0  # an empty batch drops nothing
        return 1.0 - self.plan.pos.size / self.locations.size

    def max_needed_capacity(self) -> int:
        """Smallest ``dC`` that would drop nothing for this routing."""
        return self.plan.needed_capacity


def compute_locations(idxs: np.ndarray, num_experts: int,
                      priority: np.ndarray | None = None) -> np.ndarray:
    """Capacity-queue positions for each (slot, token) routing decision.

    For every expert, tokens routed to it are numbered 0, 1, 2, ... in
    arrival order; slots of lower ``k`` index are served before higher
    ones (GShard semantics).  With ``priority`` given (higher = more
    important), numbering follows decreasing priority instead of batch
    order — this is batch prioritized routing.

    Parameters
    ----------
    idxs:
        ``(k, T)`` int array of expert assignments.
    num_experts:
        Global expert count ``E``.
    priority:
        Optional ``(T,)`` priority scores.

    Returns
    -------
    np.ndarray
        ``(k, T)`` int array of queue positions.
    """
    k, t = idxs.shape
    if priority is not None and priority.shape != (t,):
        raise ValueError(
            f"priority must have shape ({t},), got {priority.shape}")
    order = (np.argsort(-priority, kind="stable") if priority is not None
             else None)

    # Service order is slot-major with tokens in (priority or batch)
    # order inside each slot; a single stable sort of the flattened
    # expert assignments then yields every route's queue position as
    # its rank within its expert's run — O(k*T*log(k*T)) with no
    # (T, E) one-hot or cumsum temporaries.
    # The sort key is each expert id in the narrowest unsigned type that
    # holds E - 1: a stable sort of <= 16-bit keys is a radix sort, and
    # a stable sort has one answer whatever its algorithm.
    routes = idxs if order is None else idxs[:, order]
    flat = routes.reshape(-1)
    perm = flat.astype(np.min_scalar_type(num_experts - 1)).argsort(
        kind="stable")
    sorted_experts = flat.take(perm)
    run_start = sorted_experts.searchsorted(sorted_experts)
    ranks = np.empty(flat.shape[0], dtype=np.int64)
    ranks[perm] = np.arange(flat.shape[0], dtype=np.int64) - run_start
    locations = ranks.reshape(k, t)
    if order is not None:
        inverse = np.empty_like(order)
        inverse[order] = np.arange(t)
        locations = locations[:, inverse]
    return locations


def select_top_k(probs: np.ndarray, k: int) -> np.ndarray:
    """``(T, k)`` expert indices: column ``j`` is each token's ``j``-th
    best expert, ties going to the lower expert index.

    The one top-k selection in ``src/repro`` (pinned by
    ``tests/test_lint.py``).
    """
    return np.argsort(-probs, axis=1, kind="stable")[:, :k]
