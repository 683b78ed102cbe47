"""Encode (dispatch-input generation) and decode (combine) kernels.

Two computationally equivalent implementations, mirroring paper
Figure 18 and Section 4.2:

* the **dense** GShard/Fairseq path materializes one-hot location
  tensors and an ``(T, E, dC)`` combine-weights tensor, then uses
  einsums — ``O(T * E * dC * M)`` work, almost all of it multiplying
  zeros;
* the **sparse** Tutel path scatters/gathers exactly the ``O(T * k * M)``
  useful elements (kernels K0/K1/K2 of Figure 19), including the
  backward-pass computations so a training step never needs the dense
  tensors.

Both paths accept the same :class:`RoutingCriteria` and produce
identical numerics; the tests assert elementwise agreement and the
Figure 24 bench measures the (real, CPU) speed gap.
"""

from __future__ import annotations

import numpy as np

from repro.moe.gating import RoutingCriteria

__all__ = [
    "dense_dispatch_mask",
    "dense_combine_weights",
    "dense_encode",
    "dense_decode",
    "fast_encode",
    "fast_encode_backward",
    "fast_decode",
    "fast_decode_backward",
    "dispatch_buffer_pool",
]


# ----------------------------------------------------------------------
# Kernel output counter
# ----------------------------------------------------------------------

class _OutputCounter:
    """Counts the fast kernels' zeroed outputs; keeps none of them.

    Each kernel call takes a fresh ``np.zeros`` (the allocator already
    recycles freed blocks), so no output can alias another live one and
    nothing outlives its batch.  ``hits`` stays 0, ``misses`` counts
    kernel calls and ``_free`` stays empty: ``benchmarks/perf/worker.py``
    reads all three (DESIGN §15).
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._free: dict = {}

    def zeros(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        self.misses += 1
        return np.zeros(shape, dtype=dtype)


_COUNTER = _OutputCounter()


def dispatch_buffer_pool() -> _OutputCounter:
    """The process-wide counter of the fast kernels' outputs."""
    return _COUNTER


# ----------------------------------------------------------------------
# Dense (GShard / Fairseq) implementation — Figure 18a
# ----------------------------------------------------------------------

def dense_combine_weights(crit: RoutingCriteria) -> np.ndarray:
    """The ``(T, E, dC)`` combine-weights tensor of Figure 18a.

    ``combine[t, e, c] = gate`` iff some top-k slot routed token ``t``
    to expert ``e`` at queue position ``c`` within capacity.
    """
    t = crit.num_tokens
    # Allocate in the gates' dtype: an untyped np.zeros would silently
    # upcast the whole dense reference path to float64.
    combine = np.zeros((t, crit.num_experts * crit.capacity),
                       dtype=crit.gates.dtype)
    plan = crit.plan
    np.add.at(combine, (plan.tokens, plan.cells), crit.gates.take(plan.pos))
    return combine.reshape(t, crit.num_experts, crit.capacity)


def dense_dispatch_mask(crit: RoutingCriteria) -> np.ndarray:
    """Boolean ``(T, E, dC)`` mask: which token fills which slot."""
    return dense_combine_weights(crit) > 0


def dense_encode(x: np.ndarray, crit: RoutingCriteria) -> np.ndarray:
    """Dense dispatch: ``einsum("tec,tm->ecm", mask, x)``."""
    _check_tokens(x, crit)
    mask = dense_dispatch_mask(crit).astype(x.dtype)
    return np.einsum("tec,tm->ecm", mask, x, optimize=True)


def dense_decode(expert_output: np.ndarray,
                 crit: RoutingCriteria) -> np.ndarray:
    """Dense combine: ``einsum("tec,ecm->tm", combine, expert_output)``."""
    _check_dispatched(expert_output, crit)
    combine = dense_combine_weights(crit).astype(expert_output.dtype)
    return np.einsum("tec,ecm->tm", combine, expert_output,
                     optimize=True)


# ----------------------------------------------------------------------
# Sparse (Tutel fast encode/decode) implementation — Figure 18b / 19
# ----------------------------------------------------------------------

def _scatter_add_slots(out: np.ndarray, tokens: np.ndarray,
                       rows: np.ndarray, bounds: list[int]) -> None:
    """``out[tokens] += rows`` slot by slot, consuming ``rows``: a token
    appears once per slot, so a gather, an add and a scatter are exact
    (no np.add.at).  Slot 0 lands on the zero fill, and ``rows + 0.0``
    is ``0.0 + rows`` bitwise; when it keeps every token they are in
    order, so it is written without an index.  A later slot adds with
    the accumulated value first, as '+=' does, so NaN bits match too."""
    head = rows[:bounds[1]]
    if len(head) == len(out):
        np.add(head, 0.0, out=out)
    else:
        out[tokens[:bounds[1]]] = head + 0.0
    for a, b in zip(bounds[1:], bounds[2:]):
        tok, slot = tokens[a:b], rows[a:b]
        out[tok] = np.add(out.take(tok, axis=0), slot, out=slot)


def fast_encode(x: np.ndarray, crit: RoutingCriteria) -> np.ndarray:
    """Sparse dispatch (kernel K0 forward): scatter tokens into
    ``(E, dC, M)`` capacity cells; ``O(T * k * M)`` work."""
    _check_tokens(x, crit)
    _, tokens, cells, _, _ = crit.routes()
    out = _COUNTER.zeros((crit.num_experts * crit.capacity, x.shape[1]),
                         x.dtype)
    # Queue positions are unique per expert, so '=' and '+=' agree.
    out[cells] = x.take(tokens, axis=0)
    return out.reshape(crit.num_experts, crit.capacity, x.shape[1])


def fast_encode_backward(grad_dispatched: np.ndarray,
                         crit: RoutingCriteria) -> np.ndarray:
    """Gradient of :func:`fast_encode` w.r.t. the token input ``x``.

    Kernel K1 applied to the encode op: each token gathers the
    gradients of every cell it was scattered to.
    """
    _check_dispatched(grad_dispatched, crit)
    m = grad_dispatched.shape[-1]
    flat = grad_dispatched.reshape(-1, m)
    grad_x = _COUNTER.zeros((crit.num_tokens, m), grad_dispatched.dtype)
    _, tokens, cells, _, bounds = crit.routes()
    _scatter_add_slots(grad_x, tokens, flat.take(cells, axis=0), bounds)
    return grad_x


def fast_decode(expert_output: np.ndarray,
                crit: RoutingCriteria) -> np.ndarray:
    """Sparse combine (kernel K1 forward):
    ``Y[t] = sum_slots gate * Z[idx, loc]``."""
    _check_dispatched(expert_output, crit)
    m = expert_output.shape[-1]
    flat = expert_output.reshape(-1, m)
    out = _COUNTER.zeros((crit.num_tokens, m), expert_output.dtype)
    _, tokens, cells, gates, bounds = crit.routes()
    weighted = flat.take(cells, axis=0)
    weighted *= gates[:, None]
    _scatter_add_slots(out, tokens, weighted, bounds)
    return out


def fast_decode_backward(grad_output: np.ndarray, expert_output: np.ndarray,
                         crit: RoutingCriteria
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of :func:`fast_decode` (kernels K0 and K2 of Fig. 19).

    Returns ``(grad_expert_output, grad_gates)`` where ``grad_gates``
    has the ``(k, T)`` layout of ``crit.gates`` (zeros at invalid
    slots) so the gating function can be trained through the combine.
    """
    _check_dispatched(expert_output, crit)
    if grad_output.shape != (crit.num_tokens, expert_output.shape[-1]):
        raise ValueError(
            f"grad_output shape {grad_output.shape} does not match "
            f"(T={crit.num_tokens}, M={expert_output.shape[-1]})")
    pos, tokens, cells, gates, _ = crit.routes()
    m = expert_output.shape[-1]
    flat_z = expert_output.reshape(-1, m)

    grad_z = _COUNTER.zeros(flat_z.shape, flat_z.dtype)
    # Capacity cells are globally unique (one queue position per
    # routed token), so direct assignment replaces np.add.at.
    grad_z[cells] = gates[:, None] * grad_output[tokens]
    grad_z = grad_z.reshape(expert_output.shape)

    grad_gates = np.zeros(crit.gates.shape, crit.gates.dtype)
    grad_gates.reshape(-1)[pos] = np.einsum(
        "rm,rm->r", grad_output[tokens], flat_z[cells])
    return grad_z, grad_gates


# ----------------------------------------------------------------------
# Shape checks
# ----------------------------------------------------------------------

def _check_tokens(x: np.ndarray, crit: RoutingCriteria) -> None:
    if x.ndim != 2 or x.shape[0] != crit.num_tokens:
        raise ValueError(
            f"x must be (T={crit.num_tokens}, M), got {x.shape}")


def _check_dispatched(z: np.ndarray, crit: RoutingCriteria) -> None:
    if z.ndim != 3 or z.shape[:2] != (crit.num_experts, crit.capacity):
        raise ValueError(
            f"dispatched tensor must be (E={crit.num_experts}, "
            f"dC={crit.capacity}, M), got {z.shape}")
