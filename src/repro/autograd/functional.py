"""Differentiable nonlinearities, normalization and losses.

Each op is its forward, its backward closure and one
:meth:`Tensor.from_op` call naming it.  No op mentions the profiler:
it meets ops inside ``from_op`` and prices them by that name.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.moe.ffn import act_backward, act_forward

__all__ = [
    "relu",
    "gelu",
    "tanh",
    "exp",
    "log",
    "softmax",
    "log_softmax",
    "layer_norm",
    "cross_entropy",
    "gather_rows",
    "take_along",
    "concat",
]


def relu(x: Tensor) -> Tensor:
    out_data, _ = act_forward(x.data, "relu")

    def backward(grad: np.ndarray) -> None:
        x._accumulate(act_backward(grad, x.data, None, "relu"))
    return Tensor.from_op(out_data, (x,), backward, "relu")


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GELU with its exact derivative."""
    out_data, t = act_forward(x.data, "gelu")

    def backward(grad: np.ndarray) -> None:
        x._accumulate(act_backward(grad, x.data, t, "gelu"))
    return Tensor.from_op(out_data, (x,), backward, "gelu")


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - t * t))
    return Tensor.from_op(t, (x,), backward, "tanh")


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * e)
    return Tensor.from_op(e, (x,), backward, "exp")


def log(x: Tensor) -> Tensor:

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad / x.data)
    return Tensor.from_op(np.log(x.data), (x,), backward, "log")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * s).sum(axis=axis, keepdims=True)
        x._accumulate(s * (grad - dot))
    return Tensor.from_op(s, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    s = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - s * grad.sum(axis=axis, keepdims=True))
    return Tensor.from_op(out_data, (x,), backward, "log_softmax")


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """LayerNorm over the last axis with affine parameters."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * weight.data + bias.data

    def backward(grad: np.ndarray) -> None:
        weight._accumulate((grad * xhat).sum(
            axis=tuple(range(grad.ndim - 1))))
        bias._accumulate(grad.sum(axis=tuple(range(grad.ndim - 1))))
        gx = grad * weight.data
        dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        x._accumulate(dx)
    return Tensor.from_op(out_data, (x, weight, bias), backward,
                          "layer_norm")


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


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Differentiable row gather: ``out[i] = x[indices[i]]``."""
    indices = np.asarray(indices)
    out_data = x.data[indices]

    def backward(grad: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        np.add.at(gx, indices, grad)
        x._accumulate(gx)
    return Tensor.from_op(out_data, (x,), backward, "gather_rows")


def take_along(x: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """Differentiable ``np.take_along_axis``."""
    indices = np.asarray(indices)
    out_data = np.take_along_axis(x.data, indices, axis=axis)

    def backward(grad: np.ndarray) -> None:
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


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation."""
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(lo, hi)
            t._accumulate(grad[tuple(slicer)])
    return Tensor.from_op(out_data, tensors, backward, "concat")
