"""Array kernels of the expert FFN and its activations.

The one tanh-GELU / ReLU pair (forward and derivative) and the fused
``act(x @ w1) @ w2`` forward/backward on raw arrays, ragged over the
per-expert occupancy: one GEMM per non-empty expert over the occupied
prefix of its capacity slab, never over the padding.  A leaf module
beside the scatter/gather kernels of :mod:`repro.moe.encode`, and the
only expert FFN: the autograd ops (:mod:`repro.autograd.functional`'s
relu/gelu, :mod:`repro.autograd.moe_ops`'s fused FFN) and every NumPy
forward — the expert-parallel, P1 and P2 forwards
(:func:`repro.moe.distributed.expert_exchange`, every capacity row) —
all run these same bodies, so they agree numerically.  A forward no
tape will differentiate passes ``save=False`` and keeps no activations;
a taped one keeps what its backward reads, the activation (written over
the hidden array) and GELU's derivative.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "BLOCK",
    "act_forward",
    "act_backward",
    "ffn_forward_arrays",
    "ffn_backward_arrays",
]

#: Activations the fused expert FFN supports.
ACTIVATIONS = ("gelu", "relu")

_GELU_C = float(np.sqrt(2.0 / np.pi))


#: Elements per block of the blocked elementwise kernels (here and in
#: :meth:`repro.autograd.optim.Adam.step`): every array a block touches
#: stays cache-resident across the passes made over it.  32 Ki measured
#: best of 8 Ki .. 4 Mi on the build box (DESIGN.md "Memory discipline
#: of the train step"); a constant, not a setting.
BLOCK = 32 * 1024


def _blocks(size: int) -> list[slice]:
    return [slice(lo, lo + BLOCK) for lo in range(0, size, BLOCK)]


def _unknown(activation: str) -> ValueError:
    return ValueError(f"unknown activation {activation!r}; "
                      f"expected one of {ACTIVATIONS}")


def act_forward(h: np.ndarray, activation: str, in_place: bool = False,
                save: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Apply the activation; returns ``(a, d)`` for :func:`act_backward`.

    ``d`` is GELU's derivative ``act'(h)`` when ``save``, else ``None``
    (ReLU needs none: ``a > 0`` is its mask).  GELU runs block by
    block, each block's passes while it is in cache, through one block
    of tanh scratch (and one more for ``d``): ``d`` is written from
    ``h`` and ``tanh`` before ``a`` is, so ``in_place=True`` can write
    ``a`` over the C-contiguous ``h`` with the same bits.
    """
    if activation == "relu":
        return np.maximum(h, 0.0, out=h if in_place else None), None
    if activation != "gelu":
        raise _unknown(activation)
    a = h if in_place else np.empty(h.shape, dtype=h.dtype)
    d = np.empty(h.shape, dtype=h.dtype) if save else None
    t = np.empty(min(h.size, BLOCK), dtype=h.dtype)
    s = np.empty_like(t) if save else None
    hf, af = h.reshape(-1), a.reshape(-1)
    for b in _blocks(hf.size):
        hb, ab = hf[b], af[b]
        tb = t[:hb.size]
        # The generic pow kernel makes ``h ** 3`` ~20x slower than two
        # multiplies and this op dominates expert-FFN wall time, so the
        # polynomial is built from muls chained in place.
        np.multiply(hb, hb, out=tb)
        tb *= hb
        tb *= 0.044715
        tb += hb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        if save:
            db, sb = d.reshape(-1)[b], s[:hb.size]
            np.multiply(hb, hb, out=sb)
            sb *= 3 * 0.044715
            sb += 1.0
            sb *= _GELU_C
            np.multiply(tb, tb, out=db)
            np.subtract(1.0, db, out=db)
            db *= sb
            db *= hb
            db += 1.0
            db += tb
            db *= 0.5
        # ``1 + t`` stays the first operand of the product: NaN
        # propagation follows it, so the NaN bits match too.
        tb += 1.0
        np.multiply(tb, hb, out=ab)
        ab *= 0.5
    return a, d


def act_backward(grad: np.ndarray, a: np.ndarray, d: np.ndarray | None,
                 activation: str, out: np.ndarray | None = None
                 ) -> np.ndarray:
    """``grad * act'(h)`` from :func:`act_forward`'s ``(a, d)``.

    The one activation derivative: GELU multiplies by the saved ``d``,
    ReLU by the mask ``a > 0``, block by block so the mask is never
    materialized.  Written into ``out`` (a fresh array when ``None``;
    ``out=grad`` updates in place).
    """
    if activation not in ACTIVATIONS:
        raise _unknown(activation)
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(grad, a))
    elif not out.flags.c_contiguous:
        # A strided ``out`` would flatten to a copy and lose the result.
        raise ValueError("act_backward: out must be C-contiguous")
    if activation == "gelu":
        return np.multiply(grad, d, out=out)
    gf, af, of = grad.reshape(-1), a.reshape(-1), out.reshape(-1)
    for b in _blocks(af.size):
        np.multiply(gf[b], af[b] > 0.0, out=of[b])
    return out


def _occupied(rows, num_experts: int, cap: int
              ) -> tuple[list[tuple[int, slice, slice]], int]:
    """``(expert, slab rows, hidden rows)`` per non-empty expert, and
    ``sum(n_e)``.

    The two slices are ``[:n_e]`` of the expert's ``cap``-row slab and
    its ``n_e`` rows of the compact hidden arrays.  ``rows=None`` means
    every expert fills all ``cap`` rows.  Built once per forward (plain
    ints and slices, which the per-expert loops index with) and reused
    by the backward.
    """
    counts = [cap] * num_experts if rows is None else np.asarray(rows).tolist()
    if (len(counts) != num_experts
            or not (0 <= min(counts) and max(counts) <= cap)):
        raise ValueError(
            f"rows must be {num_experts} ints in [0, {cap}], got {counts}")
    occupied, total = [], 0
    for e, n in enumerate(counts):
        if n:
            occupied.append((e, slice(n), slice(total, total + n)))
            total += n
    return occupied, total


def _common(*arrays: np.ndarray) -> list[np.ndarray]:
    """The operands in their common dtype (no copy when they share it).

    ``ndarray.dot(out=)`` takes no mixed types, and a float32
    checkpoint resumed under a float64 process does mix them; NumPy's
    own promotion would make the same casts inside each GEMM.
    """
    dtype = np.result_type(*arrays)
    return [a.astype(dtype, copy=False) for a in arrays]


def _hidden(x: np.ndarray, w1: np.ndarray, activation: str, rows,
            save: bool = True) -> tuple:
    """The compact ``(sum(n_e), V)`` activation, written over the hidden
    array, GELU's derivative when ``save``, and the occupancy they were
    built over."""
    occupied, total = _occupied(rows, *x.shape[:2])
    h = np.empty((total, w1.shape[-1]), dtype=x.dtype)
    for e, rs, hs in occupied:
        x[e, rs].dot(w1[e], out=h[hs])
    return (*act_forward(h, activation, in_place=True, save=save), occupied)


def _weight_grad(w: np.ndarray, occupied) -> np.ndarray:
    """An uninitialised gradient of ``w`` with the slabs of idle experts
    zeroed: every other slab is a GEMM's ``out=``."""
    g = np.empty(w.shape, dtype=w.dtype)
    if len(occupied) < len(g):
        busy = {e for e, _, _ in occupied}
        g[[e for e in range(len(g)) if e not in busy]] = 0
    return g


def ffn_forward_arrays(x: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                       activation: str, rows=None, save: bool = True
                       ) -> tuple[np.ndarray, list | None]:
    """Fused expert FFN forward on raw arrays, ragged over ``rows``.

    ``x`` is ``(E, cap, M)``, ``w1`` ``(E, M, V)``, ``w2`` ``(E, V, M)``;
    ``rows`` holds each expert's occupancy ``n_e`` (E ints in
    ``[0, cap]``; ``None`` means all ``cap`` rows).  One GEMM per
    non-empty expert multiplies ``x[e, :n_e]`` only, the activation
    runs once over the compact ``(sum(n_e), V)`` hidden array, and
    ``y[e, :n_e]`` is written into a zeroed ``(E, cap, M)`` output.

    Layout invariant: the occupied rows of an expert's slab are its
    prefix (:func:`repro.moe.gating.compute_locations` numbers a queue
    0, 1, 2, ... and :attr:`RoutingCriteria.occupancy` covers any gaps),
    and padded rows are exact zeros in and out.  That holds because the
    fused FFN has no bias and ``act(0) = 0``: a zero row maps to a zero
    row, so skipping it changes no consumer.  Rows at or beyond ``n_e``
    are never read.

    Returns ``(y, saved)``.  ``saved`` is ``[a, d, occupancy]``: what
    the backward reads, the activation (written over the hidden array)
    and GELU's derivative ``act'(h)`` (``None`` for ReLU, whose mask is
    ``a > 0``).  It is single-use: the backward empties it and writes
    over ``a``.  ``save=False`` skips the derivative and keeps nothing
    (``saved`` is ``None``), same ``y``.
    """
    x, w1, w2 = _common(x, w1, w2)
    a, d, occupied = _hidden(x, w1, activation, rows, save)
    y = np.zeros((*x.shape[:2], w2.shape[-1]), dtype=x.dtype)
    for e, rs, hs in occupied:
        a[hs].dot(w2[e], out=y[e, rs])
    return y, [a, d, occupied] if save else None


def ffn_backward_arrays(x: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                        grad_y: np.ndarray, activation: str,
                        saved: list | None = None, rows=None,
                        weight_grads: bool = True
                        ) -> tuple[np.ndarray, np.ndarray | None,
                                   np.ndarray | None]:
    """Gradients of the fused expert FFN w.r.t. (x, w1, w2).

    With ``saved=None`` the activation and its derivative are
    recomputed from the inputs over ``rows``; passing the forward's
    ``saved`` reuses them and carries the forward's occupancy with it.
    The ``w2`` gradient reads ``a``; the gradient w.r.t. ``a`` is then
    written over it (GELU; ReLU reads ``a`` as its mask and takes a
    fresh array) and multiplied by ``d`` in place, and ``d`` is
    released before ``grad_x`` and ``grad_w1`` are allocated.  ``saved``
    is consumed: the call empties it, and passing it again raises
    ``ValueError``.  ``a`` is written over only when its dtype is the
    backward's (a ``grad_y`` wider than the forward's operands gets a
    fresh array).

    Only ``grad_y[e, :n_e]`` is read; ``grad_x`` is zero on padded rows
    and an idle expert's weight gradients are zero.
    ``weight_grads=False`` (frozen experts) skips both weight-gradient
    GEMMs of every expert and returns ``None`` in their place.
    """
    x, w1, w2, grad_y = _common(x, w1, w2, grad_y)
    if saved is None:
        a, d, occupied = _hidden(x, w1, activation, rows)
    elif not saved:
        raise ValueError("ffn_backward_arrays: saved was consumed by an "
                         "earlier backward; run the forward again")
    else:
        a, d, occupied = saved
        saved.clear()
    grad_h = a if d is not None and a.dtype == x.dtype \
        else np.empty(a.shape, dtype=x.dtype)
    grad_w2 = _weight_grad(w2, occupied) if weight_grads else None
    for e, rs, hs in occupied:
        gy = grad_y[e, rs]
        if weight_grads:
            a[hs].T.dot(gy, out=grad_w2[e])
        gy.dot(w2[e].T, out=grad_h[hs])
    act_backward(grad_h, a, d, activation, out=grad_h)
    # Released before grad_x and grad_w1 exist: the step's peak.
    del a, d
    grad_x = np.zeros(x.shape, dtype=x.dtype)
    grad_w1 = _weight_grad(w1, occupied) if weight_grads else None
    for e, rs, hs in occupied:
        gh = grad_h[hs]
        gh.dot(w1[e].T, out=grad_x[e, rs])
        if weight_grads:
            x[e, rs].T.dot(gh, out=grad_w1[e])
    return grad_x, grad_w1, grad_w2
