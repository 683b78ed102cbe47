"""Array kernels of the expert FFN and its activations.

The one tanh-GELU / ReLU pair (forward and derivative) and the fused
``act(x @ w1) @ w2`` forward/backward on raw arrays.  A leaf module
beside the scatter/gather kernels of :mod:`repro.moe.encode`: the
autograd ops (:mod:`repro.autograd.functional`,
:mod:`repro.autograd.moe_ops`), the NumPy layer
(:mod:`repro.moe.layer`), the P2 forward and the multicore executor's
workers (:mod:`repro.runtime.executor`) all run these same bodies, so
they agree numerically.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "act_forward",
    "act_grad",
    "ffn_forward_arrays",
    "ffn_backward_arrays",
]

#: Activations the fused expert FFN supports.
ACTIVATIONS = ("gelu", "relu")

_GELU_C = float(np.sqrt(2.0 / np.pi))


def act_forward(h: np.ndarray, activation: str
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """Apply the activation; returns (a, cache) for the backward."""
    if activation == "relu":
        return np.maximum(h, 0.0), None
    if activation == "gelu":
        # The generic pow kernel makes ``h ** 3`` ~20x slower than two
        # multiplies and this op dominates expert-FFN wall time, so the
        # polynomial is built from muls with in-place chaining.
        inner = h * h
        inner *= h
        inner *= 0.044715
        inner += h
        inner *= _GELU_C
        t = np.tanh(inner)
        a = t + 1.0
        a *= h
        a *= 0.5
        return a, t
    raise ValueError(f"unknown activation {activation!r}; "
                     f"expected one of {ACTIVATIONS}")


def act_grad(h: np.ndarray, cache: np.ndarray | None,
             activation: str) -> np.ndarray:
    """d(activation)/dh given :func:`act_forward`'s cache."""
    if activation == "relu":
        return h > 0.0
    if activation == "gelu":
        t = cache
        d_inner = h * h
        d_inner *= 3 * 0.044715
        d_inner += 1.0
        d_inner *= _GELU_C
        d = t * t
        np.subtract(1.0, d, out=d)
        d *= d_inner
        d *= h
        d += 1.0
        d += t
        d *= 0.5
        return d
    raise ValueError(f"unknown activation {activation!r}; "
                     f"expected one of {ACTIVATIONS}")


def ffn_forward_arrays(x: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                       activation: str
                       ) -> tuple[np.ndarray, tuple]:
    """Fused expert FFN forward on raw arrays.

    ``x`` is ``(E, dC, M)``, ``w1`` ``(E, M, V)``, ``w2`` ``(E, V, M)``;
    returns ``(y, saved)`` where ``saved`` lets a same-process backward
    skip the recompute.
    """
    h = np.matmul(x, w1)
    a, cache = act_forward(h, activation)
    y = np.matmul(a, w2)
    return y, (h, a, cache)


def ffn_backward_arrays(x: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                        grad_y: np.ndarray, activation: str,
                        saved: tuple | None = None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the fused expert FFN w.r.t. (x, w1, w2).

    With ``saved=None`` the hidden activations are recomputed from the
    inputs (the stateless worker protocol); passing the forward's saved
    tuple gives the conventional memory-for-compute trade.
    """
    if saved is None:
        h = np.matmul(x, w1)
        a, cache = act_forward(h, activation)
    else:
        h, a, cache = saved
    grad_a = np.matmul(grad_y, w2.swapaxes(-1, -2))
    grad_w2 = np.matmul(a.swapaxes(-1, -2), grad_y)
    grad_h = grad_a
    grad_h *= act_grad(h, cache, activation)
    grad_x = np.matmul(grad_h, w1.swapaxes(-1, -2))
    grad_w1 = np.matmul(x.swapaxes(-1, -2), grad_h)
    return grad_x, grad_w1, grad_w2
