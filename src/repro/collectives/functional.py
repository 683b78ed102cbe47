"""Functional (data-moving) collectives over simulated ranks.

Every algorithm here operates on a list of per-rank NumPy arrays — the
"world" — and returns the per-rank results.  These are the correctness
half of the collectives layer: the 2DH algorithm (paper Algorithm 3 /
Figure 15) must produce byte-identical output to the linear algorithm
(paper Algorithm 1), and the tests assert exactly that.  Both run on
one exchange primitive, all-to-all within rank groups, which can count
what it moves into the records :mod:`repro.collectives.schedule`
prices (:class:`Traffic`), so each mover is checked against its closed
form too.

Conventions: for plain All-to-All each rank's input has leading
dimension ``n`` (one chunk per destination rank); rank ``r``'s output
row ``s`` is rank ``s``'s input row ``r``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.collectives.schedule import Copy, Exchange, Link
from repro.obs import CAT_COLLECTIVE
from repro.obs import span as _span

__all__ = [
    "Traffic",
    "stride_memcpy",
    "all_to_all_2dh_phases",
    "flexible_all_to_all",
    "all_gather",
    "reduce_scatter",
]


@dataclass
class Traffic:
    """One GPU's phases as a data mover ran them, in the schedule's
    records; ``topo`` names the link each message rides."""

    topo: ClusterTopology
    phases: list[Copy | Exchange] = field(default_factory=list)

    def _link(self, src: int, dst: int) -> Link:
        m = self.topo.gpus_per_node
        if src // m == dst // m:
            return Link.INTRA
        if src % m == dst % m or not self.topo.rail_optimized:
            return Link.RAIL
        return Link.CROSS

    def exchange(self, group: list[int], nbytes: int) -> None:
        """Count the messages the group's first rank sends to its peers
        (every rank's count when ``gpus_per_node`` divides the world)."""
        links = [self._link(group[0], dst) for dst in group[1:]]
        self.phases += [Exchange(link, links.count(link), nbytes)
                        for link in Link if link in links]


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


def _group_all_to_all(buffers: list[np.ndarray], groups: list[list[int]],
                      concat_dim: int, split_dim: int,
                      traffic: Traffic | None) -> list[np.ndarray]:
    """All-to-All within each rank group, the one exchange primitive.

    Rank ``group[i]`` splits its buffer into ``len(group)`` equal parts
    along ``split_dim`` and sends part ``j`` to ``group[j]``, which
    concatenates what it receives along ``concat_dim`` in group order.
    """
    out = list(buffers)
    for group in groups:
        parts = [np.split(buffers[src], len(group), axis=split_dim)
                 for src in group]
        for j, dst in enumerate(group):
            out[dst] = np.concatenate([p[j] for p in parts],
                                      axis=concat_dim)
    if traffic is not None:
        traffic.exchange(groups[0], buffers[groups[0][0]].nbytes
                         // len(groups[0]))
    return out


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


def all_to_all_2dh_phases(
        inputs: list[np.ndarray], gpus_per_node: int,
        traffic: Traffic | None = None) -> list[list[np.ndarray]]:
    """All intermediate layouts of 2DH All-to-All (paper Figure 15).

    Returns ``[initial, phase1, phase2, phase3, phase4]`` where each
    entry is the per-rank buffer list; ``phase4`` equals the linear
    ``flexible_all_to_all(inputs, 0, 0)`` while only large aggregated
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
    m = gpus_per_node
    nnodes = n // m
    nodes = [list(range(start, start + m)) for start in range(0, n, m)]
    rails = [list(range(local, n, m)) for local in range(m)]

    with _span("all_to_all_2dh", CAT_COLLECTIVE):
        phases = [list(inputs)]
        # Phase 1 aligns chunks sharing a destination local rank, for
        # the intra-node exchange of phase 2; phase 3 aligns chunks
        # sharing a destination node, for the on-rail exchange of
        # phase 4.  Both copies move S/n chunks.
        for row, col, groups in ((m, nnodes, nodes), (nnodes, m, rails)):
            aligned = [stride_memcpy(b, row=row, col=col)
                       for b in phases[-1]]
            if traffic is not None and n > 1:  # one rank prices nothing
                nbytes = aligned[0].nbytes
                traffic.phases.append(Copy(nbytes, nbytes // n))
            phases += [aligned,
                       _group_all_to_all(aligned, groups, 0, 0, traffic)]
    return phases


def flexible_all_to_all(inputs: list[np.ndarray], concat_dim: int,
                        split_dim: int,
                        traffic: Traffic | None = None) -> list[np.ndarray]:
    """Flexible All-to-All (paper Section 3.1, Table 3).

    Splits each rank's tensor into ``n`` equal parts along
    ``split_dim``, exchanges part ``r`` to rank ``r``, and concatenates
    the received parts along ``concat_dim``.  ``(x, 0, 0)`` is the
    linear All-to-All (paper Algorithm 1).  With MoE dispatch inputs
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
        return _group_all_to_all(inputs, [list(range(n))], concat_dim,
                                 split_dim, traffic)


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
