"""Functional (data-moving) collectives over simulated ranks.

Every algorithm here operates on a list of per-rank NumPy arrays — the
"world" — and returns the per-rank results.  These are the correctness
half of the collectives layer: the 2DH algorithm (paper Algorithm 3 /
Figure 15) must produce byte-identical output to the linear algorithm
(paper Algorithm 1), and the tests assert exactly that.  The latency
half lives in :mod:`repro.collectives.schedule`.

Conventions: for plain All-to-All each rank's input has leading
dimension ``n`` (one chunk per destination rank); rank ``r``'s output
row ``s`` is rank ``s``'s input row ``r``.
"""

from __future__ import annotations

import numpy as np

from repro.obs import CAT_COLLECTIVE
from repro.obs import span as _span

__all__ = [
    "all_to_all_linear",
    "stride_memcpy",
    "all_to_all_2dh_phases",
    "flexible_all_to_all",
    "all_gather",
    "reduce_scatter",
]


def _check_world(inputs: list[np.ndarray]) -> int:
    n = len(inputs)
    if n == 0:
        raise ValueError("world must contain at least one rank")
    shape = inputs[0].shape
    for r, arr in enumerate(inputs):
        if arr.shape != shape:
            raise ValueError(
                f"rank {r} has shape {arr.shape}, expected {shape}")
    return n


def all_to_all_linear(inputs: list[np.ndarray]) -> list[np.ndarray]:
    """Linear All-to-All (paper Algorithm 1).

    ``inputs[r]`` has shape ``(n, ...)``; ``outputs[r][s] == inputs[s][r]``.
    """
    n = _check_world(inputs)
    for r, arr in enumerate(inputs):
        if arr.shape[0] != n:
            raise ValueError(
                f"rank {r} input leading dim {arr.shape[0]} != world {n}")
    with _span("all_to_all_linear", CAT_COLLECTIVE):
        return [np.stack([inputs[s][r] for s in range(n)])
                for r in range(n)]


def stride_memcpy(buf: np.ndarray, row: int, col: int) -> np.ndarray:
    """Chunk-grid transpose used by 2DH phases 1 and 3 (Algorithm 3).

    The buffer is viewed as ``col x row`` equal chunks in row-major
    order and rewritten as the ``row x col`` transpose, aligning chunks
    that share a destination into contiguous runs.
    """
    if row < 1 or col < 1:
        raise ValueError(f"row and col must be >= 1, got {row}, {col}")
    if buf.shape[0] != row * col:
        raise ValueError(
            f"buffer leading dim {buf.shape[0]} != row*col = {row * col}")
    grid = buf.reshape(col, row, *buf.shape[1:])
    return np.ascontiguousarray(grid.swapaxes(0, 1)).reshape(buf.shape)


def _intra_node_exchange(buffers: list[np.ndarray], gpus_per_node: int,
                         block: int) -> list[np.ndarray]:
    """All-to-All within each node, moving contiguous blocks of
    ``block`` chunks between local peers (2DH phase 2)."""
    n = len(buffers)
    out = [np.empty_like(b) for b in buffers]
    for node_start in range(0, n, gpus_per_node):
        local = list(range(node_start, min(node_start + gpus_per_node, n)))
        for dst_idx, dst in enumerate(local):
            parts = [buffers[src][dst_idx * block:(dst_idx + 1) * block]
                     for src in local]
            out[dst] = np.concatenate(parts, axis=0)
    return out


def _inter_node_exchange(buffers: list[np.ndarray], gpus_per_node: int,
                         block: int) -> list[np.ndarray]:
    """All-to-All between same-local-rank GPUs of different nodes,
    moving contiguous blocks of ``block`` chunks (2DH phase 4)."""
    n = len(buffers)
    nnodes = -(-n // gpus_per_node)
    out = [np.empty_like(b) for b in buffers]
    for local_rank in range(min(gpus_per_node, n)):
        rail = [node * gpus_per_node + local_rank for node in range(nnodes)
                if node * gpus_per_node + local_rank < n]
        for dst_idx, dst in enumerate(rail):
            parts = [buffers[src][dst_idx * block:(dst_idx + 1) * block]
                     for src in rail]
            out[dst] = np.concatenate(parts, axis=0)
    return out


def all_to_all_2dh_phases(
        inputs: list[np.ndarray],
        gpus_per_node: int) -> list[list[np.ndarray]]:
    """All intermediate layouts of 2DH All-to-All (paper Figure 15).

    Returns ``[initial, phase1, phase2, phase3, phase4]`` where each
    entry is the per-rank buffer list; ``phase4`` equals
    :func:`all_to_all_linear`'s output while only large aggregated
    messages were sent.
    """
    n = _check_world(inputs)
    if gpus_per_node < 1:
        raise ValueError(
            f"gpus_per_node must be >= 1, got {gpus_per_node}")
    if n % gpus_per_node != 0:
        raise ValueError(
            f"world size {n} must be a multiple of gpus_per_node "
            f"{gpus_per_node} for 2DH")
    nnodes = n // gpus_per_node
    m = gpus_per_node

    with _span("all_to_all_2dh", CAT_COLLECTIVE):
        phases = [list(inputs)]
        # Phase 1: align chunks sharing the same destination local rank.
        p1 = [stride_memcpy(b, row=m, col=nnodes) for b in phases[-1]]
        phases.append(p1)
        # Phase 2: intra-node All-to-All of nnodes-chunk blocks.
        phases.append(_intra_node_exchange(p1, m, block=nnodes))
        # Phase 3: align chunks sharing the same destination node.
        p3 = [stride_memcpy(b, row=nnodes, col=m) for b in phases[-1]]
        phases.append(p3)
        # Phase 4: inter-node All-to-All of m-chunk blocks.
        phases.append(_inter_node_exchange(p3, m, block=m))
    return phases


def flexible_all_to_all(inputs: list[np.ndarray], concat_dim: int,
                        split_dim: int) -> list[np.ndarray]:
    """Flexible All-to-All (paper Section 3.1, Table 3).

    Splits each rank's tensor into ``n`` equal parts along
    ``split_dim``, exchanges part ``r`` to rank ``r``, and concatenates
    the received parts along ``concat_dim``.  With MoE dispatch inputs
    of layout ``(E, dC, M)``:

    - ``flexible_all_to_all(x, 1, 0)`` yields ``(dE, C, M)`` — the
      scale-independent layout used for expert computation;
    - ``flexible_all_to_all(y, 0, 1)`` is its inverse for combine.
    """
    n = _check_world(inputs)
    ndim = inputs[0].ndim
    for name, dim in (("concat_dim", concat_dim), ("split_dim", split_dim)):
        if not 0 <= dim < ndim:
            raise ValueError(f"{name} {dim} out of range for ndim {ndim}")
    if inputs[0].shape[split_dim] % n != 0:
        raise ValueError(
            f"dimension {split_dim} of size {inputs[0].shape[split_dim]} "
            f"is not divisible by world size {n}")
    with _span("flexible_all_to_all", CAT_COLLECTIVE):
        split_parts = [np.split(arr, n, axis=split_dim) for arr in inputs]
        return [np.concatenate([split_parts[s][r] for s in range(n)],
                               axis=concat_dim)
                for r in range(n)]


def all_gather(inputs: list[np.ndarray]) -> list[np.ndarray]:
    """Each rank receives the concatenation of every rank's shard."""
    _check_world(inputs)
    with _span("all_gather", CAT_COLLECTIVE):
        gathered = np.concatenate(inputs, axis=0)
        return [gathered.copy() for _ in inputs]


def reduce_scatter(inputs: list[np.ndarray]) -> list[np.ndarray]:
    """Sum across ranks, then scatter equal shards along dim 0."""
    n = _check_world(inputs)
    if inputs[0].shape[0] % n != 0:
        raise ValueError(
            f"leading dim {inputs[0].shape[0]} not divisible by world {n}")
    with _span("reduce_scatter", CAT_COLLECTIVE):
        total = np.sum(np.stack(inputs), axis=0)
        return list(np.split(total, n, axis=0))
