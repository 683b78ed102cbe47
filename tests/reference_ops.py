"""Taped reference ops the fused kernels are checked against."""

import numpy as np

from repro.autograd.tensor import Tensor
from repro.moe.ffn import act_backward, act_forward


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GELU as its own tape node: the elementwise step
    of the composition ``act(x @ w1 + b1) @ w2 + b2`` that the fused
    FFN ops replace bit for bit."""
    out_data, t = act_forward(x.data, "gelu")

    def backward(grad):
        x._accumulate(act_backward(grad, x.data, t, "gelu"))
    return Tensor.from_op(out_data, (x,), backward, "gelu")


def take_along(x: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """Differentiable ``np.take_along_axis``."""
    indices = np.asarray(indices)
    out_data = np.take_along_axis(x.data, indices, axis=axis)

    def backward(grad):
        # put_along_axis overwrites on duplicate indices, so scatter-add
        # through explicit fancy indexing instead.
        gx = np.zeros_like(x.data)
        idx = [np.arange(s).reshape([s if d == i else 1
                                     for d in range(x.ndim)])
               for i, s in enumerate(x.data.shape)]
        idx[axis] = indices
        np.add.at(gx, tuple(np.broadcast_arrays(*idx)), grad)
        x._accumulate(gx)
    return Tensor.from_op(out_data, (x,), backward, "take_along")


def mean(x: Tensor, axis: int) -> Tensor:
    """A taped mean: the sum, then a multiply by ``1 / count`` in
    ``x``'s dtype."""
    count = x.data.shape[axis]
    return x.sum(axis=axis) * Tensor(1.0 / count, dtype=x.data.dtype)


def composed_gates(probs: Tensor, routing) -> Tensor:
    """``Routing.gates`` composed from taped ops (gather, transpose and,
    for k > 1, sum / add / div): the chain ``nn.moe``'s gates op
    replaces bit for bit."""
    selected = take_along(probs, routing.order, axis=1).T
    if routing.order.shape[1] > 1:
        selected = selected / (selected.sum(axis=0, keepdims=True)
                               + Tensor(1e-12, dtype=probs.data.dtype))
    return selected


def composed_l_aux(probs: Tensor, routing) -> Tensor:
    """``Routing.l_aux`` composed from taped ops: the chain ``nn.moe``'s
    ``l_aux`` op replaces bit for bit."""
    dtype = probs.data.dtype
    t, e = probs.shape
    counts = np.bincount(routing.crit.idxs[0], minlength=e)
    routed_frac = Tensor(counts / t, dtype=dtype)
    return ((mean(probs, axis=0) * routed_frac).sum()
            * Tensor(e, dtype=dtype))


def compute_locations_reference(idxs: np.ndarray, num_experts: int,
                                priority: np.ndarray | None = None
                                ) -> np.ndarray:
    """The pre-rewrite :func:`repro.moe.gating.compute_locations`.

    Materializes a ``(T, E)`` one-hot and a full cumsum per top-k slot
    in a Python loop: the independent oracle ``tests/test_gating.py``
    checks the rewrite against.
    """
    k, t = idxs.shape
    if priority is not None and priority.shape != (t,):
        raise ValueError(
            f"priority must have shape ({t},), got {priority.shape}")
    order = (np.argsort(-priority, kind="stable") if priority is not None
             else np.arange(t))

    locations = np.empty((k, t), dtype=np.int64)
    counts = np.zeros(num_experts, dtype=np.int64)
    for slot in range(k):
        assigned = idxs[slot, order]                      # (T,) in priority order
        one_hot = np.zeros((t, num_experts), dtype=np.int64)
        one_hot[np.arange(t), assigned] = 1
        pos_in_order = one_hot.cumsum(axis=0) - 1         # 0-based per expert
        slot_locations = (pos_in_order[np.arange(t), assigned]
                          + counts[assigned])
        locations[slot, order] = slot_locations
        counts += one_hot.sum(axis=0)
    return locations
