"""Optimizers for the training experiments."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, stack_gradients
from repro.moe.ffn import BLOCK

__all__ = ["Adam", "clip_grad_norm"]


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
    """Adam with decoupled weight decay (AdamW-style).

    Each moment lives in one contiguous buffer, private to the
    optimizer; ``_m`` / ``_v`` are lists of per-parameter views into
    them (what checkpoints capture).
    Parameters are not re-pointed: ``p.data`` may be replaced between
    steps.  :meth:`step` is the only writer of ``_m`` / ``_v`` /
    ``_step`` besides :meth:`load_moments`.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        ends = np.cumsum([p.data.size for p in self.params]).tolist()
        self._spans = list(zip([0] + ends[:-1], ends))
        self._seat(np.result_type(*[p.data.dtype for p in self.params])
                   if self.params else np.dtype(float))

    def _seat(self, dtype: np.dtype) -> None:
        """Allocate the flat moment buffers in ``dtype`` (zeroed), cut
        the per-parameter views and size the block scratch."""
        total = self._spans[-1][1] if self._spans else 0
        self._flat = [np.zeros(total, dtype=dtype) for _ in range(2)]
        self._m, self._v = (
            [flat[lo:hi].reshape(p.data.shape)
             for p, (lo, hi) in zip(self.params, self._spans)]
            for flat in self._flat)
        self._scratch = np.zeros((3, min(total, BLOCK)), dtype=dtype)

    def load_moments(self, m: list[np.ndarray], v: list[np.ndarray],
                     step: int) -> None:
        """Restore optimizer state (the checkpoint path).  The saved
        arrays' dtype wins: the flat buffers are re-seated in it rather
        than casting, so a float32 run resumes bit-identically under a
        float64 process."""
        if len(m) != len(self.params) or len(v) != len(self.params):
            raise ValueError(
                f"optimizer slot count mismatch: {len(self.params)} "
                f"parameters, {len(m)} / {len(v)} saved moments")
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

    def step(self) -> None:
        """One fused in-place update, cache-blocked.

        The arithmetic and its order are exactly the textbook
        per-parameter form (bitwise equal; ``tests/test_autograd.py``
        keeps that form as the oracle)::

            m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            u = (m/bias1) / (sqrt(v/bias2) + eps) + wd*p;  p -= lr*u

        but it runs over blocks of at most ``BLOCK`` elements of the
        flat moment buffers — adjacent small parameters share a block,
        a large one spans several — with three block-sized scratch
        rows, so nothing parameter-sized is allocated or copied and
        each block stays in cache across its passes.  A parameter
        whose ``grad`` is ``None`` is skipped whole.
        """
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        # The open block: pieces ``(flat lo, flat hi, gradient,
        # parameter)`` (1-D views) adjacent in the flat buffers.
        block: list[tuple] = []
        for p, (lo, hi) in zip(self.params, self._spans):
            if p.grad is None:
                continue
            if not p.data.flags.c_contiguous:
                # The flat view must alias the parameter, not a copy.
                p.data = np.ascontiguousarray(p.data)
            grad, data = p.grad.reshape(-1), p.data.reshape(-1)
            for o in range(0, hi - lo, BLOCK):
                start, stop = lo + o, min(lo + o + BLOCK, hi)
                if block and (block[-1][1] != start
                              or stop - block[0][0] > BLOCK):
                    self._update_block(block, bias1, bias2)
                    block = []
                block.append((start, stop, grad[o:o + BLOCK],
                              data[o:o + BLOCK]))
        if block:
            self._update_block(block, bias1, bias2)

    def _update_block(self, pieces: list[tuple], bias1: float,
                      bias2: float) -> None:
        b1, b2 = self.beta1, self.beta2
        lo, hi = pieces[0][0], pieces[-1][1]
        m, v = self._flat[0][lo:hi], self._flat[1][lo:hi]
        g, t, u = self._scratch[:, :hi - lo]
        # Gather (strided and broadcast-shaped gradients too).
        for start, stop, grad, _ in pieces:
            np.copyto(g[start - lo:stop - lo], grad)
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
        t += self.eps
        u /= t
        # Apply (``p.data`` is wherever it is now).
        for start, stop, _, data in pieces:
            piece = u[start - lo:stop - lo]
            if self.weight_decay:
                decay = t[start - lo:stop - lo]
                np.multiply(data, self.weight_decay, out=decay)
                piece += decay
            piece *= self.lr
            data -= piece

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
