"""Optimizers for the training experiments."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, stack_gradients
from repro.moe.ffn import BLOCK

__all__ = ["Adam", "clip_grad_norm"]

#: Adam's moment decays and denominator guard, and the decoupled weight
#: decay every training run uses.
BETAS = (0.9, 0.999)
EPS = 1e-8
WEIGHT_DECAY = 1e-4


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the norm before scaling.  One ``np.vdot`` per gradient, no
    temporaries.  A non-finite norm (a NaN or Inf anywhere in the
    gradients) scales nothing and is returned as it is: the caller's
    non-finite guard needs no second pass over the gradients.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    norm = stack_gradients(params)
    if max_norm < norm < float("inf"):
        scale = max_norm / (norm + 1e-12)
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class Adam:
    """Adam with decoupled weight decay (AdamW-style), over one
    parameter store.

    Each moment lives in one flat buffer; ``_m`` / ``_v`` are lists of
    per-parameter views into them (what checkpoints capture).  Every
    parameter is seated at its span of the same index space in a flat
    buffer of its dtype, the store, and ``p.data`` becomes a view of
    it; a ``p.data`` replaced between steps is adopted into a rebuilt
    store.  Gradients stay the arrays the tape made.  :meth:`step` is
    the only writer of ``_m`` / ``_v`` / ``_step`` besides
    :meth:`load_moments`.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        self._step = 0
        ends = np.cumsum([p.data.size for p in self.params]).tolist()
        self._spans = list(zip([0] + ends[:-1], ends))
        self._total = ends[-1] if ends else 0
        # The non-finite guard's record: per store, its bits and the
        # (index, old bits) of what was written since :meth:`snapshot`.
        self._undo: list[tuple] = []
        self._seat(np.result_type(*[p.data.dtype for p in self.params])
                   if self.params else np.dtype(float))
        self._seat_params()

    def _seat(self, dtype: np.dtype) -> None:
        """Allocate the flat moment buffers in ``dtype`` (zeroed), cut
        the per-parameter views and size the block scratch."""
        self._flat = [np.zeros(self._total, dtype=dtype) for _ in range(2)]
        self._m, self._v = (
            [flat[lo:hi].reshape(p.data.shape)
             for p, (lo, hi) in zip(self.params, self._spans)]
            for flat in self._flat)
        self._scratch = np.zeros((3, min(self._total, BLOCK)), dtype=dtype)
        self._plans: dict[tuple[int, ...], list] = {}

    def _seat_params(self) -> None:
        """Copy every ``p.data`` into a new store and point it there.
        One dtype (the usual case) is one buffer the size of the model;
        a second dtype gets its own, whose other spans go unused."""
        self.stores: dict[np.dtype, np.ndarray] = {}
        for p, (lo, hi) in zip(self.params, self._spans):
            if p.data.size != hi - lo:
                raise ValueError(f"parameter {p.name or '?'} changed size: "
                                 f"{hi - lo} -> {p.data.size}")
            if p.data.dtype not in self.stores:
                self.stores[p.data.dtype] = np.empty(self._total,
                                                     p.data.dtype)
            view = self.stores[p.data.dtype][lo:hi].reshape(p.data.shape)
            np.copyto(view, p.data)
            p.data = view
        self._views = [p.data for p in self.params]
        self._plans = {}

    def _adopt(self) -> None:
        """Re-seat the store if any ``p.data`` is no longer its view."""
        if any(p.data is not v for p, v in zip(self.params, self._views)):
            self._seat_params()

    def snapshot(self) -> None:
        """Open the non-finite guard's record: a transient copy of the
        store (one per dtype), which :meth:`shrink_snapshot` cuts down
        to what was written since.  The trainer brackets its step hook
        with the two: :meth:`step` runs only on good steps, so the hook
        is the only other writer of the parameters between steps."""
        self._adopt()
        # Each store viewed as unsigned ints of its width: equality of
        # the views is bit equality.
        self._undo = [(bits, slice(None), bits.copy()) for bits in
                      (s.view(f"u{s.itemsize}") for s in self.stores.values())]

    def shrink_snapshot(self) -> None:
        """Keep only the ``(index, old bits)`` of the store entries whose
        bits changed since :meth:`snapshot` (``-0.0`` over ``0.0`` and
        one NaN over another count), and drop the copy.  The compare
        runs block by block over 8-byte words, with no store-sized
        temporary; only a block that differs is searched entry by entry,
        as are the entries past the last whole word."""
        for i, (bits, _, old) in enumerate(self._undo):
            per = 8 // bits.itemsize        # entries per word
            cut = bits.size - bits.size % per
            now_w, old_w = (a[:cut].view(np.uint64) for a in (bits, old))
            found = []
            for w in range(0, now_w.size, BLOCK):
                if (now_w[w:w + BLOCK] != old_w[w:w + BLOCK]).any():
                    lo, hi = w * per, min(w + BLOCK, now_w.size) * per
                    found.append(np.flatnonzero(bits[lo:hi] != old[lo:hi])
                                 + lo)
            found.append(np.flatnonzero(bits[cut:] != old[cut:]) + cut)
            idx = np.concatenate(found)
            self._undo[i] = (bits, idx, old[idx])

    def rollback(self) -> None:
        """Write back the old bits of what was written since the last
        :meth:`snapshot` (nothing, without one), point every ``p.data``
        at its view of the store again and drop the gradients.  Valid
        until the next :meth:`step` or :meth:`load_moments`, the other
        places the store is re-seated."""
        for bits, idx, old in self._undo:
            bits[idx] = old
        self._undo = []
        for p, view in zip(self.params, self._views):
            p.data, p.grad = view, None

    def load_moments(self, m: list[np.ndarray], v: list[np.ndarray],
                     step: int) -> None:
        """Restore optimizer state (the checkpoint path).  The saved
        arrays' dtype wins: the flat buffers are re-seated in it rather
        than casting, so a float32 run resumes bit-identically under a
        float64 process.  Parameters restored since construction are
        adopted into the store first."""
        if len(m) != len(self.params) or len(v) != len(self.params):
            raise ValueError(
                f"optimizer slot count mismatch: {len(self.params)} "
                f"parameters, {len(m)} / {len(v)} saved moments")
        self._adopt()
        if m:
            dtype = np.result_type(*[a.dtype for a in (*m, *v)])
            if dtype != self._flat[0].dtype:
                self._seat(dtype)
        for slots, saved in ((self._m, m), (self._v, v)):
            for slot, arr in zip(slots, saved):
                if slot.shape != arr.shape:
                    raise ValueError(
                        f"moment shape mismatch: {slot.shape} vs saved "
                        f"{arr.shape}")
                np.copyto(slot, arr)
        self._step = step

    def _plan(self, skipped: tuple[int, ...]) -> list[tuple]:
        """The blocks of a step whose parameters ``skipped`` have no
        gradient: runs of at most ``BLOCK`` elements, contiguous and of
        one dtype, so adjacent small parameters share a block and a
        large one spans several.  Each is ``(m, v, g, t, u, data,
        pieces)``: views of the moments, the scratch rows and the store,
        and per piece ``(g's slice, parameter index, slice of its flat
        gradient or None for all of it)``."""
        blocks: list[list] = []     # [lo, hi, dtype, pieces]
        for i, (lo, hi) in enumerate(self._spans):
            if i in skipped:
                continue
            dtype = self._views[i].dtype
            for o in range(0, hi - lo, BLOCK):
                start, stop = lo + o, min(lo + o + BLOCK, hi)
                if (not blocks or blocks[-1][1:3] != [start, dtype]
                        or stop - blocks[-1][0] > BLOCK):
                    blocks.append([start, start, dtype, []])
                blocks[-1][1] = stop
                blocks[-1][3].append((start, stop, i, None if stop - start
                                      == hi - lo else slice(o, o + BLOCK)))
        plan = []
        for lo, hi, dtype, pieces in blocks:
            g, t, u = self._scratch[:, :hi - lo]
            plan.append((
                self._flat[0][lo:hi], self._flat[1][lo:hi], g, t, u,
                self.stores[dtype][lo:hi],
                [(g[a - lo:b - lo] if piece is not None else
                  g[a - lo:b - lo].reshape(self._views[i].shape), i, piece)
                 for a, b, i, piece in pieces]))
        return plan

    def step(self) -> None:
        """One fused in-place update, cache-blocked.

        The arithmetic and its order are exactly the textbook
        per-parameter form (bitwise equal; ``tests/test_autograd.py``
        keeps that form as the oracle)::

            m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            u = (m/bias1) / (sqrt(v/bias2) + eps) + wd*p;  p -= lr*u

        with ``(b1, b2) = BETAS``, ``eps = EPS`` and ``wd = WEIGHT_DECAY``,

        but it runs over the blocks of :meth:`_plan` (gradient-less
        parameters are skipped whole): each gathers its gradients into a
        scratch row and updates its slices of the moments and the store
        in place, staying in cache across its passes.
        """
        self._adopt()
        self._undo = []
        self._step += 1
        b1, b2 = BETAS
        bias1 = 1.0 - b1 ** self._step
        bias2 = 1.0 - b2 ** self._step
        lr = self.lr
        grads = [p.grad for p in self.params]
        skipped = tuple(i for i, g in enumerate(grads) if g is None)
        plan = self._plans.get(skipped)
        if plan is None:
            plan = self._plans[skipped] = self._plan(skipped)
        for m, v, g, t, u, data, pieces in plan:
            # Gather (strided and broadcast-shaped gradients too).
            for dst, i, piece in pieces:
                np.copyto(dst, grads[i] if piece is None
                          else grads[i].reshape(-1)[piece])
            m *= b1
            np.multiply(g, 1 - b1, out=t)
            m += t
            v *= b2
            np.multiply(g, g, out=t)
            t *= 1 - b2
            v += t
            np.divide(m, bias1, out=u)
            np.divide(v, bias2, out=t)
            np.sqrt(t, out=t)
            t += EPS
            u /= t
            np.multiply(data, WEIGHT_DECAY, out=t)
            u += t
            u *= lr
            data -= u

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
