"""Multicore expert-parallel FFN executor (shared-memory process pool).

The MoE layer's expert FFNs are embarrassingly parallel across the
expert axis: ``(E, dC, M) @ (E, M, V)`` is E independent GEMMs.  This
module makes that parallelism real — a :class:`ExpertParallelExecutor`
fans contiguous expert chunks out to N worker processes over
``multiprocessing.shared_memory`` slabs, so the repo is a small real
expert-parallel system rather than only a simulator of one (paper
Section 3's multi-GPU dispatch, reproduced at multi-core scale).

Protocol: every call copies the operand arrays into named shared-memory
slabs, submits one ``(e0, e1)`` expert-range task per worker together
with that range's slice ``rows[e0:e1]`` of the per-expert occupancy,
and copies the result out.  Workers are **stateless** — the backward
pass recomputes the hidden activations from the slabs
(checkpointing-style) instead of shipping saved state between
processes.  The serial fused path in
:func:`repro.autograd.moe_ops.expert_ffn` calls the same
:func:`ffn_forward_arrays` / :func:`ffn_backward_arrays` kernels
(:mod:`repro.moe.ffn`, re-exported here), and those run one GEMM per
non-empty expert over ``x[e, :rows[e]]`` whichever process they run in,
so serial and parallel execution agree bitwise.

Enable via :func:`repro.core.substrate.set_expert_workers` (or the
``REPRO_EXPERT_WORKERS`` env var).  Serial is the default: at the toy
benchmark sizes the per-call IPC overhead exceeds the GEMM time, and
the executor only pays off once ``E * dC * M * V`` is large enough
that BLAS time dominates the ~1 ms round trip.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_all_start_methods, get_context
from multiprocessing import shared_memory

import numpy as np

from repro.core import substrate as _substrate
from repro.moe.ffn import ffn_backward_arrays, ffn_forward_arrays

__all__ = [
    "ExpertParallelExecutor",
    "get_executor",
    "shutdown_executor",
]

# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

# Attached shared-memory segments, cached per worker process by name.
_WORKER_SLABS: dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    shm = _WORKER_SLABS.get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        _WORKER_SLABS[name] = shm
    return shm


def _worker_run(mode: str, slabs: dict[str, tuple[str, tuple[int, ...]]],
                dtype_str: str, e0: int, e1: int,
                activation: str, rows: list[int] | None) -> int:
    """Run one expert-range chunk against the named shared slabs.

    ``rows`` is the chunk's slice ``rows[e0:e1]`` of the per-expert
    occupancy (``None`` = all capacity rows), so every expert sees the
    same GEMM shapes as in the serial call.
    """
    dtype = np.dtype(dtype_str)

    def view(field: str) -> np.ndarray:
        name, shape = slabs[field]
        return np.ndarray(shape, dtype=dtype, buffer=_attach(name).buf)

    x = view("x")[e0:e1]
    w1 = view("w1")[e0:e1]
    w2 = view("w2")[e0:e1]
    if mode == "forward":
        y, _ = ffn_forward_arrays(x, w1, w2, activation, rows)
        view("y")[e0:e1] = y
    elif mode == "backward":
        gy = view("gy")[e0:e1]
        weight_grads = "gw1" in slabs
        gx, gw1, gw2 = ffn_backward_arrays(x, w1, w2, gy, activation,
                                           rows=rows,
                                           weight_grads=weight_grads)
        view("gx")[e0:e1] = gx
        if weight_grads:
            view("gw1")[e0:e1] = gw1
            view("gw2")[e0:e1] = gw2
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return e1 - e0


# ----------------------------------------------------------------------
# Host side
# ----------------------------------------------------------------------

class ExpertParallelExecutor:
    """Fans per-expert FFN chunks out to a process pool over shm slabs.

    Slabs grow monotonically (reallocated under a fresh name when a
    call needs more bytes) and are reused across steps, so steady-state
    training does no shm churn.  ``broken`` latches True on the first
    pool failure; callers fall back to the serial path.
    """

    def __init__(self, num_workers: int,
                 start_method: str | None = None) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        if start_method is None:
            # fork shares the already-imported interpreter image; spawn
            # is the portable fallback.
            methods = get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = get_context(start_method)
        self._pool: ProcessPoolExecutor | None = None
        self._slabs: dict[str, shared_memory.SharedMemory] = {}
        self._gen = 0
        self.broken = False
        self.calls = 0

    # -- slabs ---------------------------------------------------------

    def _slab_view(self, tag: str, shape: tuple[int, ...],
                   dtype: np.dtype) -> tuple[str, np.ndarray]:
        nbytes = int(np.prod(shape)) * dtype.itemsize
        shm = self._slabs.get(tag)
        if shm is None or shm.size < nbytes:
            if shm is not None:
                shm.close()
                shm.unlink()
            self._gen += 1
            name = f"repro-ep-{os.getpid()}-{tag}-{self._gen}"
            shm = shared_memory.SharedMemory(name=name, create=True,
                                             size=nbytes)
            self._slabs[tag] = shm
        return shm.name, np.ndarray(shape, dtype=dtype, buffer=shm.buf)

    # -- pool ----------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.num_workers,
                                             mp_context=self._ctx)
        return self._pool

    def _chunks(self, num_experts: int) -> list[tuple[int, int]]:
        bounds = np.linspace(0, num_experts, self.num_workers + 1,
                             dtype=int)
        return [(int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def _run(self, mode: str, inputs: dict[str, np.ndarray],
             outputs: dict[str, tuple[int, ...]], activation: str,
             rows) -> dict[str, np.ndarray]:
        dtype = next(iter(inputs.values())).dtype
        slabs: dict[str, tuple[str, tuple[int, ...]]] = {}
        for tag, arr in inputs.items():
            name, view = self._slab_view(tag, arr.shape, dtype)
            view[...] = arr
            slabs[tag] = (name, arr.shape)
        out_views: dict[str, np.ndarray] = {}
        for tag, shape in outputs.items():
            name, view = self._slab_view(tag, shape, dtype)
            slabs[tag] = (name, shape)
            out_views[tag] = view
        num_experts = slabs["x"][1][0]
        if rows is not None:
            rows = np.asarray(rows).tolist()
            if len(rows) != num_experts:
                raise ValueError(
                    f"rows must hold {num_experts} ints, got {len(rows)}")
        pool = self._ensure_pool()
        futures = [pool.submit(_worker_run, mode, slabs, dtype.str,
                               e0, e1, activation,
                               None if rows is None else rows[e0:e1])
                   for e0, e1 in self._chunks(num_experts)]
        for fut in futures:
            fut.result()
        self.calls += 1
        # Copy out: the slabs are reused by the next call, but the
        # autograd graph owns the returned arrays.
        return {tag: np.array(view) for tag, view in out_views.items()}

    # -- public API ----------------------------------------------------

    def ffn_forward(self, x: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                    activation: str, rows=None) -> np.ndarray:
        """Parallel :func:`ffn_forward_arrays` across the expert axis."""
        out = self._run("forward", {"x": x, "w1": w1, "w2": w2},
                        {"y": x.shape}, activation, rows)
        return out["y"]

    def ffn_backward(self, x: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                     grad_y: np.ndarray, activation: str, rows=None,
                     weight_grads: bool = True
                     ) -> tuple[np.ndarray, np.ndarray | None,
                                np.ndarray | None]:
        """Parallel :func:`ffn_backward_arrays` (recompute protocol);
        without ``weight_grads`` no weight-gradient slab is requested
        and the workers skip those GEMMs."""
        outputs = {"gx": x.shape}
        if weight_grads:
            outputs.update(gw1=w1.shape, gw2=w2.shape)
        out = self._run("backward",
                        {"x": x, "w1": w1, "w2": w2, "gy": grad_y},
                        outputs, activation, rows)
        return out["gx"], out.get("gw1"), out.get("gw2")

    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory slab."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        for shm in self._slabs.values():
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # already unlinked
                pass
        self._slabs.clear()


# ----------------------------------------------------------------------
# Process-wide executor, sized from the substrate config
# ----------------------------------------------------------------------

_EXECUTOR: ExpertParallelExecutor | None = None


def get_executor() -> ExpertParallelExecutor | None:
    """The executor matching ``substrate.expert_workers()``, or None.

    Returns None when expert parallelism is off (workers == 0, the
    default) or after the executor latched ``broken``; resizes the
    pool when the configured worker count changes.
    """
    global _EXECUTOR
    n = _substrate.expert_workers()
    if n <= 0:
        return None
    if _EXECUTOR is not None and _EXECUTOR.num_workers != n:
        _EXECUTOR.close()
        _EXECUTOR = None
    if _EXECUTOR is None:
        _EXECUTOR = ExpertParallelExecutor(n)
    return None if _EXECUTOR.broken else _EXECUTOR


def shutdown_executor() -> None:
    """Tear down the process-wide executor (idempotent)."""
    global _EXECUTOR
    if _EXECUTOR is not None:
        _EXECUTOR.close()
        _EXECUTOR = None


atexit.register(shutdown_executor)
