"""Differentiable dense layers, nonlinearities, normalization and losses.

Each op is its forward, its backward closure and one
:meth:`Tensor.from_op` call naming it.  No op mentions the profiler:
it meets ops inside ``from_op`` and prices them by that name.

The dense layers (:func:`linear`, :func:`ffn`, :func:`layer_norm`) are
one tape node each, bitwise equal to the taped composition they
replace: the same NumPy ops in the same order and operand order, with
the in-place steps applied only to arrays the op itself just made.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.moe.ffn import act_backward, act_forward

__all__ = [
    "linear",
    "ffn",
    "exp",
    "softmax",
    "layer_norm",
    "cross_entropy",
]


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map ``x @ w + b`` as one op (``b=None``: no bias)."""
    out = x.data @ w.data
    parents = (x, w)
    if b is not None:
        out += b.data
        parents = (x, w, b)

    def backward(grad: np.ndarray) -> None:
        if b is not None:
            b._accumulate(grad)
        # A parent that takes no gradient (the model input, a frozen
        # weight) costs no GEMM.
        if x.requires_grad:
            x._accumulate(grad @ np.swapaxes(w.data, -1, -2))
        if w.requires_grad:
            w._accumulate(np.swapaxes(x.data, -1, -2) @ grad)
    return Tensor.from_op(out, parents, backward, "linear")


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        activation: str) -> Tensor:
    """Dense FFN ``act(x @ w1 + b1) @ w2 + b2`` as one op.

    Runs :func:`repro.moe.ffn.act_forward` / ``act_backward``, the one
    activation body, and saves only what the backward reads: the
    activation, written over ``h``, and GELU's derivative (ReLU: ``a``
    alone, whose mask is ``a > 0``).  The backward takes the ``w2``
    gradient from ``a``, then writes the gradient w.r.t. ``a`` over it
    when the dtypes agree (GELU) and multiplies by the derivative in
    place: the saved arrays are single-use, and the tape runs the
    closure once.
    """
    h = x.data @ w1.data
    h += b1.data
    a, d = act_forward(h, activation, in_place=True)
    y = a @ w2.data
    y += b2.data

    def backward(grad: np.ndarray) -> None:
        b2._accumulate(grad)
        if w2.requires_grad:
            w2._accumulate(np.swapaxes(a, -1, -2) @ grad)
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        w2_t = np.swapaxes(w2.data, -1, -2)
        reuse = d is not None and a.dtype == np.result_type(grad, w2_t)
        ga = np.matmul(grad, w2_t, out=a) if reuse else grad @ w2_t
        act_backward(ga, a, d, activation, out=ga)
        b1._accumulate(ga)
        if w1.requires_grad:
            w1._accumulate(np.swapaxes(x.data, -1, -2) @ ga)
        if x.requires_grad:
            x._accumulate(ga @ np.swapaxes(w1.data, -1, -2))
    return Tensor.from_op(y, (x, w1, b1, w2, b2), backward, "ffn",
                          activation)


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * e)
    return Tensor.from_op(e, (x,), backward, "exp")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * s).sum(axis=axis, keepdims=True)
        x._accumulate(s * (grad - dot))
    return Tensor.from_op(s, (x,), backward, "softmax")


def _row_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)`` by the ops ``np.mean`` runs
    (a sum, then a divide by the count), without its Python wrapper."""
    m = a.sum(axis=-1, keepdims=True)
    m /= a.shape[-1]
    return m


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """LayerNorm over the last axis with affine parameters (``eps`` 1e-5).

    ``d = x - mu`` is computed once: it is the centred array ``np.var``
    squares and sums, and it becomes ``xhat`` in place.
    """
    mu = _row_mean(x.data)
    xhat = x.data - mu
    var = _row_mean(np.square(xhat))
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    out = xhat * weight.data
    out += bias.data

    def backward(grad: np.ndarray) -> None:
        weight._accumulate((grad * xhat).sum(
            axis=tuple(range(grad.ndim - 1))))
        bias._accumulate(grad.sum(axis=tuple(range(grad.ndim - 1))))
        gx = grad * weight.data
        m1 = _row_mean(gx)
        m2 = _row_mean(gx * xhat)
        # ``inv * (gx - m1 - xhat * m2)``, one array, operand order kept.
        gx -= m1
        gx -= xhat * m2
        np.multiply(inv, gx, out=gx)
        x._accumulate(gx)
    return Tensor.from_op(out, (x, weight, bias), backward, "layer_norm")


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over integer class labels."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError(
            f"logits must be (N, C) and labels (N,), got {logits.shape} "
            f"and {labels.shape}")
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    loss = -logp[np.arange(n), labels].mean()

    def backward(grad: np.ndarray) -> None:
        prob = np.exp(logp)
        prob[np.arange(n), labels] -= 1.0
        logits._accumulate(float(grad) * prob / n)
    return Tensor.from_op(np.asarray(loss), (logits,), backward,
                          "cross_entropy")
