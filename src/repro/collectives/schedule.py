"""Analytic latency models for the collective algorithms.

For symmetric collectives every rank does identical work, so one
representative GPU's message schedule determines the collective's
latency in closed form.  The models below implement the arithmetic of
paper Sections 2.4 / 3.4 / 4.3:

* **linear** All-to-All: ``n - 1`` point-to-point messages of ``S/n``
  bytes each, per-message overhead dominating at scale; in a
  rail-optimized fabric most of those messages are additionally
  cross-rail.
* **naive local aggregation**: an intra-node phase that degenerates to
  ``n/m`` rounds of non-contiguous exchanges (the ~600 us -> ~5 ms
  blow-up quoted in Section 3.4), then an aggregated inter-node phase.
* **2DH**: two aligned stride copies + an intra-node All-to-All of
  ``S/m`` messages + an on-rail inter-node All-to-All of ``m * S/n``
  messages (Algorithm 3).
* **MSCCL-optimized 2DH** removes the inter-phase synchronization
  barriers of the NCCL implementation, and the **LL128** protocol
  trades a ~5% bandwidth cap for much lower per-message overhead
  (Section 4.3 / Figure 21).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cluster.linkmodel import stride_memcpy_time
from repro.cluster.topology import ClusterTopology, LinkSpec

__all__ = [
    "A2AAlgorithm",
    "Protocol",
    "Impl",
    "CollectiveCostModel",
    "linear_a2a_time",
    "naive_local_agg_a2a_time",
    "twodh_a2a_time",
    "threedh_a2a_time",
    "a2a_time",
    "all_gather_time",
    "reduce_scatter_time",
    "best_a2a_algorithm",
    "feasible_a2a_algorithms",
]


class A2AAlgorithm(enum.Enum):
    """All-to-All algorithm choices exposed to adaptive pipelining."""

    LINEAR = "linear"
    NAIVE_LOCAL_AGG = "naive_local_agg"
    TWO_DH = "2dh"


class Protocol(enum.Enum):
    """NCCL transfer protocol (Section 4.3)."""

    SIMPLE = "simple"
    LL128 = "ll128"


class Impl(enum.Enum):
    """Implementation backend for hierarchical algorithms."""

    NCCL = "nccl"          # ncclSend/ncclRecv with inter-phase barriers
    MSCCL = "msccl"        # fused DSL-compiled schedule, no barriers


@dataclass(frozen=True)
class CollectiveCostModel:
    """Tunable second-order constants of the collective models.

    Attributes
    ----------
    cross_rail_overhead:
        Multiplier on per-message overhead for messages between GPUs
        with different local ranks on a rail-optimized fabric (extra
        switch tier / adaptive-routing spraying).
    cross_rail_bandwidth:
        Bandwidth derate for cross-rail messages (adaptive routing
        recovers most of the bandwidth for large flows).
    phase_barrier:
        Synchronization cost between 2DH phases in the NCCL
        implementation; MSCCL fuses the phases and skips it.
    ll128_overhead_factor / ll128_bandwidth_factor:
        LL128 lowers per-message latency but caps achievable bandwidth.
    """

    cross_rail_overhead: float = 2.5
    cross_rail_bandwidth: float = 0.90
    phase_barrier: float = 18e-6
    ll128_overhead_factor: float = 0.35
    ll128_bandwidth_factor: float = 0.95


_DEFAULT = CollectiveCostModel()


def _with_protocol(link: LinkSpec, protocol: Protocol,
                   model: CollectiveCostModel) -> LinkSpec:
    if protocol is Protocol.SIMPLE:
        return link
    return LinkSpec(
        bandwidth=link.bandwidth * model.ll128_bandwidth_factor,
        latency=link.latency * 0.5,
        message_overhead=link.message_overhead * model.ll128_overhead_factor,
    )


def _cross_rail(link: LinkSpec, model: CollectiveCostModel) -> LinkSpec:
    return LinkSpec(
        bandwidth=link.bandwidth * model.cross_rail_bandwidth,
        latency=link.latency,
        message_overhead=link.message_overhead * model.cross_rail_overhead,
    )


def linear_a2a_time(topo: ClusterTopology, total_bytes: float,
                    protocol: Protocol = Protocol.SIMPLE,
                    model: CollectiveCostModel = _DEFAULT) -> float:
    """Latency of the linear All-to-All (Algorithm 1).

    ``total_bytes`` is the per-GPU buffer size ``S``; each peer gets an
    ``S/n`` chunk.  Intra-node messages ride NVLink concurrently with
    the NIC, so the phase time is the max of the two streams.
    """
    n = topo.num_gpus
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    if n == 1 or total_bytes == 0:
        return 0.0
    chunk = total_bytes / n
    m = topo.local_size
    intra = _with_protocol(topo.intra_link, protocol, model)
    inter = _with_protocol(topo.inter_link, protocol, model)

    intra_time = intra.stream_time(chunk, m - 1)
    inter_peers = n - m
    if inter_peers <= 0:
        return intra_time
    if topo.rail_optimized:
        # Only the destination with our own local rank is on-rail;
        # (m-1)/m of inter-node peers require cross-rail hops.
        on_rail = inter_peers // m
        off_rail = inter_peers - on_rail
        inter_time = (inter.stream_time(chunk, on_rail)
                      + _cross_rail(inter, model).stream_time(chunk,
                                                              off_rail))
    else:
        inter_time = inter.stream_time(chunk, inter_peers)
    return max(intra_time, inter_time)


def naive_local_agg_a2a_time(topo: ClusterTopology, total_bytes: float,
                             protocol: Protocol = Protocol.SIMPLE,
                             model: CollectiveCostModel = _DEFAULT) -> float:
    """Latency of the naive local-aggregation All-to-All (Figure 15 top).

    Phase 1 performs ``n/m`` successive intra-node All-to-Alls over
    non-contiguous ``S/n`` chunks — the per-round fixed costs and the
    scattered memory access make it grow with ``n`` even though the
    total bytes moved per GPU stay ``S * (m-1)/m``.
    """
    n = topo.num_gpus
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    if n == 1 or total_bytes == 0:
        return 0.0
    m = topo.local_size
    nnodes = topo.num_nodes
    chunk = total_bytes / n
    intra = _with_protocol(topo.intra_link, protocol, model)
    inter = _with_protocol(topo.inter_link, protocol, model)

    rounds = max(1, nnodes)
    per_round = intra.stream_time(chunk, m - 1)
    gather_penalty = stride_memcpy_time(topo.gpu, total_bytes, chunk)
    phase1 = rounds * per_round + gather_penalty

    inter_msg = m * chunk
    phase2 = inter.stream_time(inter_msg, nnodes - 1)
    return phase1 + phase2


def twodh_a2a_time(topo: ClusterTopology, total_bytes: float,
                   protocol: Protocol = Protocol.SIMPLE,
                   impl: Impl = Impl.NCCL,
                   model: CollectiveCostModel = _DEFAULT) -> float:
    """Latency of 2DH All-to-All (Algorithm 3).

    Phases 1-3 depend only on ``S`` and ``m``; phase 4 sends
    ``nnodes - 1`` on-rail messages of ``m * S/n`` bytes, so the
    per-message overhead term scales with ``n/m`` instead of ``n``.
    """
    n = topo.num_gpus
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    if n == 1 or total_bytes == 0:
        return 0.0
    m = topo.local_size
    nnodes = topo.num_nodes
    chunk = total_bytes / n
    intra = _with_protocol(topo.intra_link, protocol, model)
    inter = _with_protocol(topo.inter_link, protocol, model)

    copy1 = stride_memcpy_time(topo.gpu, total_bytes, chunk)
    phase2 = intra.stream_time(total_bytes / m, m - 1) if m > 1 else 0.0
    copy3 = stride_memcpy_time(topo.gpu, total_bytes, chunk * m)
    phase4 = (inter.stream_time(m * chunk, nnodes - 1)
              if nnodes > 1 else 0.0)

    total = copy1 + phase2 + copy3 + phase4
    if impl is Impl.NCCL:
        total += 3 * model.phase_barrier
    return total


def threedh_a2a_time(topo: ClusterTopology, total_bytes: float,
                     nodes_per_group: int = 16,
                     protocol: Protocol = Protocol.SIMPLE,
                     impl: Impl = Impl.MSCCL,
                     model: CollectiveCostModel = _DEFAULT) -> float:
    """Latency of 3-level hierarchical All-to-All (Section 4.3).

    Nodes form groups of ``nodes_per_group``; the long-haul message
    count per GPU scales with the *group* count instead of the node
    count, at the price of one more aggregation pass (an extra stride
    copy and an intra-group exchange).
    """
    n = topo.num_gpus
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    if nodes_per_group < 1:
        raise ValueError(
            f"nodes_per_group must be >= 1, got {nodes_per_group}")
    if n == 1 or total_bytes == 0:
        return 0.0
    m = topo.local_size
    nnodes = topo.num_nodes
    groups = max(1, nnodes // nodes_per_group)
    g = min(nodes_per_group, nnodes)
    chunk = total_bytes / n
    intra = _with_protocol(topo.intra_link, protocol, model)
    inter = _with_protocol(topo.inter_link, protocol, model)

    copy1 = stride_memcpy_time(topo.gpu, total_bytes, chunk)
    # Intra-group level: the inner 2DH — NVLink exchange of S/m
    # messages plus an on-rail intra-group exchange of m-chunk blocks.
    level1 = intra.stream_time(total_bytes / m, m - 1) if m > 1 else 0.0
    copy2 = stride_memcpy_time(topo.gpu, total_bytes, chunk * m)
    level2 = (inter.stream_time(m * chunk, g - 1) if g > 1 else 0.0)
    copy3 = stride_memcpy_time(topo.gpu, total_bytes, chunk * m * g)
    # Inter-group level: fully aggregated group-sized blocks.
    level3 = (inter.stream_time(m * g * chunk, groups - 1)
              if groups > 1 else 0.0)

    total = copy1 + level1 + copy2 + level2 + copy3 + level3
    if impl is Impl.NCCL:
        total += 5 * model.phase_barrier
    return total


def a2a_time(topo: ClusterTopology, total_bytes: float,
             algorithm: A2AAlgorithm,
             protocol: Protocol = Protocol.SIMPLE,
             impl: Impl = Impl.NCCL,
             model: CollectiveCostModel = _DEFAULT) -> float:
    """Dispatch to the requested All-to-All algorithm's latency model."""
    if algorithm is A2AAlgorithm.LINEAR:
        return linear_a2a_time(topo, total_bytes, protocol, model)
    if algorithm is A2AAlgorithm.NAIVE_LOCAL_AGG:
        return naive_local_agg_a2a_time(topo, total_bytes, protocol, model)
    if algorithm is A2AAlgorithm.TWO_DH:
        return twodh_a2a_time(topo, total_bytes, protocol, impl, model)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def best_a2a_algorithm(topo: ClusterTopology, total_bytes: float,
                       model: CollectiveCostModel = _DEFAULT,
                       candidates: tuple[A2AAlgorithm, ...] | None = None
                       ) -> tuple[A2AAlgorithm, float]:
    """Cheapest algorithm and its latency for this size and scale.

    ``candidates`` restricts the choice — the recovery path uses this
    to exclude hierarchical algorithms while a node is asymmetric
    (see :func:`feasible_a2a_algorithms`).
    """
    if candidates is not None and not candidates:
        raise ValueError("candidates must be non-empty when given")
    pool = candidates or (A2AAlgorithm.LINEAR, A2AAlgorithm.TWO_DH)
    costs = {
        algo: a2a_time(topo, total_bytes, algo, model=model)
        for algo in pool
    }
    algo = min(costs, key=costs.__getitem__)
    return algo, costs[algo]


def feasible_a2a_algorithms(topo: ClusterTopology,
                            symmetric_nodes: bool = True
                            ) -> tuple[A2AAlgorithm, ...]:
    """Algorithms usable under the current cluster health.

    2DH's intra-node aggregation phases assume every node contributes
    ``m`` equal participants; after a rank failure that leaves a node
    partially populated (``symmetric_nodes=False``), only the linear
    All-to-All — which degrades gracefully to an arbitrary peer set —
    remains available until the rank is replaced.
    """
    if symmetric_nodes and topo.local_size > 1:
        return (A2AAlgorithm.LINEAR, A2AAlgorithm.TWO_DH)
    return (A2AAlgorithm.LINEAR,)


# ----------------------------------------------------------------------
# Ring collectives used by the parallelism strategies
# ----------------------------------------------------------------------

def _ring_group_link(topo: ClusterTopology, group_size: int) -> LinkSpec:
    """Bottleneck link of a ring spanning ``group_size`` ranks."""
    if group_size <= topo.local_size:
        return topo.intra_link
    return topo.inter_link


def all_gather_time(topo: ClusterTopology, shard_bytes: float,
                    group_size: int | None = None) -> float:
    """Ring all-gather of per-rank shards of ``shard_bytes``."""
    g = topo.num_gpus if group_size is None else group_size
    if g < 1:
        raise ValueError(f"group_size must be >= 1, got {g}")
    if g == 1 or shard_bytes == 0:
        return 0.0
    link = _ring_group_link(topo, g)
    return link.stream_time(shard_bytes, g - 1)


def reduce_scatter_time(topo: ClusterTopology, total_bytes: float,
                        group_size: int | None = None) -> float:
    """Ring reduce-scatter of a ``total_bytes`` buffer."""
    g = topo.num_gpus if group_size is None else group_size
    if g < 1:
        raise ValueError(f"group_size must be >= 1, got {g}")
    if g == 1 or total_bytes == 0:
        return 0.0
    link = _ring_group_link(topo, g)
    return link.stream_time(total_bytes / g, g - 1)
