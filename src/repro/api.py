"""Paper-faithful user API (Figure 8 of the paper).

The paper's example custom MoE layer reads::

    from tutel import moe
    from tutel import net

    def custom_moe(x, top_k=2):
        scores = softmax(CustomGate(x), dim=1)
        crit, l_aux = moe.top_k_routing(scores, top_k)
        y = moe.fast_encode(x, crit)
        y = net.flex_all2all(y, 1, 0)
        y = CustomExpert(y)
        y = net.flex_all2all(y, 0, 1)
        output = moe.fast_decode(y, crit)
        return output, l_aux

This module provides the same surface over the verified internals so
the paper's snippet runs almost verbatim (``from repro.api import moe,
net``).  ``net.flex_all2all`` operates on the per-rank *world list*
the simulated ranks use; on one rank it degenerates to an identity
layout change.
"""

from __future__ import annotations

import types

import numpy as np

from repro.collectives.functional import flexible_all_to_all
from repro.moe.capacity import CapacityPolicy
from repro.moe.encode import fast_decode as _fast_decode
from repro.moe.encode import fast_encode as _fast_encode
from repro.moe.gating import RoutingCriteria, softmax
from repro.nn.moe import route

__all__ = ["moe", "net"]


def _api_top_k_routing(scores: np.ndarray, top_k: int = 2,
                       capacity_factor: float = 1.0,
                       batch_prioritized: bool = False
                       ) -> tuple[RoutingCriteria, float]:
    """``moe.top_k_routing(scores, top_k) -> (crit, l_aux)``.

    ``scores`` are post-softmax routing probabilities ``(T, E)``; the
    capacity follows the Figure 16 semantics of ``capacity_factor``.
    """
    routing = route(scores, top_k, CapacityPolicy(capacity_factor),
                    batch_prioritized)
    return routing.crit.with_gates(routing.gates), float(routing.l_aux)


def _api_flex_all2all(y, concat_dim: int, split_dim: int):
    """``net.flex_all2all(y, concat, split)`` over a world list.

    Accepts either a list of per-rank arrays (simulated multi-rank) or
    a single array (single-rank world, wrapped transparently).
    """
    if isinstance(y, np.ndarray):
        return flexible_all_to_all([y], concat_dim, split_dim)[0]
    return flexible_all_to_all(list(y), concat_dim, split_dim)


moe = types.SimpleNamespace(
    softmax=softmax,
    top_k_routing=_api_top_k_routing,
    fast_encode=_fast_encode,
    fast_decode=_fast_decode,
)

net = types.SimpleNamespace(
    flex_all2all=_api_flex_all2all,
)
