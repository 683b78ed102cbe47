"""Differentiable MoE dispatch/combine built on the sparse kernels.

Wraps the verified sparse fast encode/decode of :mod:`repro.moe.encode`
(Figure 19's K0/K1/K2 kernels) as autograd ops.  Routing indices and
locations are discrete and carry no gradient; the gate values *do* —
the combine op returns gradients for both the expert outputs and the
per-slot gates, which is how the router trains through the layer.
The router's selected gates and ``l_aux`` are one op each over the
softmax probabilities.  The fused expert FFN keeps the activation
and its derivative only when taped.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.moe.encode import (
    fast_decode,
    fast_decode_backward,
    fast_encode,
    fast_encode_backward,
)
from repro.moe.ffn import ffn_backward_arrays, ffn_forward_arrays
from repro.moe.gating import RoutingCriteria

__all__ = ["moe_dispatch", "moe_combine", "expert_ffn", "route_gates",
           "route_l_aux"]


def moe_dispatch(x: Tensor, crit: RoutingCriteria) -> Tensor:
    """Scatter tokens into ``(E, dC, M)`` capacity cells (fast_encode)."""
    out_data = fast_encode(x.data, crit)
    if not Tensor.needs_tape(x):
        return Tensor(out_data, dtype=out_data.dtype)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(fast_encode_backward(grad, crit))
    return Tensor.from_op(out_data, (x,), backward, "moe_dispatch", crit)


def moe_combine(expert_output: Tensor, gates: Tensor,
                crit: RoutingCriteria) -> Tensor:
    """Weighted gather back to token order (fast_decode).

    ``gates`` must have the ``(k, T)`` layout of ``crit.gates``; the
    decode uses these live values, keeping the router differentiable.
    """
    live = crit.with_gates(gates.data)
    out_data = fast_decode(expert_output.data, live)
    if not Tensor.needs_tape(expert_output, gates):
        return Tensor(out_data, dtype=out_data.dtype)

    def backward(grad: np.ndarray) -> None:
        grad_z, grad_gates = fast_decode_backward(grad,
                                                  expert_output.data, live)
        expert_output._accumulate(grad_z)
        gates._accumulate(grad_gates)
    return Tensor.from_op(out_data, (expert_output, gates), backward,
                          "moe_combine", live)


def expert_ffn(dispatched: Tensor, w1: Tensor, w2: Tensor,
               activation: str = "gelu", rows=None) -> Tensor:
    """Fused differentiable expert FFN: ``act(x @ w1) @ w2`` per expert.

    One tape node replaces the two per-expert GEMMs plus the activation
    op.  ``rows`` is the per-expert occupancy of ``dispatched``
    (:attr:`RoutingCriteria.occupancy`, E ints; ``None`` means all
    ``cap`` rows): the kernels multiply only ``dispatched[e, :rows[e]]``
    and the backward reuses the same occupancy.

    Layout invariant the ragged kernels rely on: the occupied rows of
    each expert's slab are a prefix, and padded rows are exact zeros —
    in ``dispatched`` (the scatter zero-fills), in the output and in the
    gradient w.r.t. ``dispatched``.  It holds only because this FFN has
    no bias and ``act(0) = 0``; a biased FFN would write ``b2`` into
    every padded row.  Shapes and meaning of outputs and gradients are
    those of the padded computation, so :func:`moe_combine` and the
    all-to-all layouts are untouched.

    The forward runs the array kernel of :mod:`repro.moe.ffn` and, only
    when taped, keeps its ``saved`` set: what the backward reads, the
    activation (written over the hidden array) and GELU's derivative
    (ReLU: the activation alone, its own mask).  The backward consumes
    that set (it writes over the activation), so it runs once, which is
    all the tape ever asks of it.
    """
    x_data, w1_data, w2_data = dispatched.data, w1.data, w2.data
    taped = Tensor.needs_tape(dispatched, w1, w2)
    out_data, saved = ffn_forward_arrays(x_data, w1_data, w2_data,
                                         activation, rows, save=taped)
    if not taped:
        return Tensor(out_data, dtype=out_data.dtype)

    def backward(grad: np.ndarray) -> None:
        # Frozen experts (the Table 10 fine-tune) take no gradient, so
        # their two weight-gradient GEMMs per expert are not run.
        weight_grads = w1.requires_grad or w2.requires_grad
        gx, gw1, gw2 = ffn_backward_arrays(
            x_data, w1_data, w2_data, grad, activation, saved, rows,
            weight_grads)
        dispatched._accumulate(gx)
        if weight_grads:
            w1._accumulate(gw1)
            w2._accumulate(gw2)
    return Tensor.from_op(out_data, (dispatched, w1, w2), backward,
                          "expert_ffn", (activation, rows))


def route_gates(probs: Tensor, routing) -> Tensor:
    """``Routing.gates`` (:mod:`repro.nn.moe`) as one op over ``probs``.
    The backward replays the chain it replaced, in order: the
    division's two partials (k > 1), the transpose, then a scatter-add
    into zeros (a row's experts are distinct)."""
    order = routing.order

    def backward(grad: np.ndarray) -> None:
        if order.shape[1] > 1:
            s = routing.selected
            den = s.sum(axis=0, keepdims=True) + 1e-12
            grad = grad / den + (-grad * s / (den * den)).sum(
                axis=0, keepdims=True)
        gx = np.zeros_like(probs.data)
        gx[np.arange(order.shape[0])[:, None], order] += grad.T
        probs._accumulate(gx)
    return Tensor.from_op(routing.gates, (probs,), backward, "route_gates")


def route_l_aux(probs: Tensor, routing) -> Tensor:
    """``Routing.l_aux`` as one op over ``probs``.  The backward replays
    the chain it replaced: ``grad * E * routed_frac * (1 / T)``,
    broadcast to ``(T, E)``."""
    t, e = probs.shape

    def backward(grad: np.ndarray) -> None:
        g = grad * e * routing.routed_frac * (1.0 / t)
        probs._accumulate(np.broadcast_to(g, (t, e)))
    return Tensor.from_op(np.asarray(routing.l_aux), (probs,), backward,
                          "route_l_aux")
