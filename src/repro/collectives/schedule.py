"""One closed-form phase list per All-to-All algorithm, and its pricer.

Every rank of a symmetric collective does the same work, so one GPU's
phases set the latency.  A phase is a :class:`Copy` (on-device stride
copy: bytes and contiguous run) or an :class:`Exchange` (link class,
messages per GPU, bytes per message).  :func:`a2a_schedule` builds each
algorithm's list (paper Sections 2.4 / 3.4 / 4.3) and :func:`a2a_time`
prices any list; the data movers of :mod:`repro.collectives.functional`
count what they move into the same records
(``tests/test_collectives_functional.py`` checks them equal):

* **linear**: ``n - 1`` messages of ``S/n`` bytes, NVLink beside the NIC;
* **naive local aggregation**: ``n/m`` rounds of non-contiguous
  intra-node exchanges (Section 3.4's ~600 us -> ~5 ms blow-up), a
  gather copy, then an aggregated inter-node exchange;
* **2DH** (Algorithm 3): stride copy, intra-node exchange of ``S/m``
  messages, stride copy, on-rail exchange of ``m * S/n`` messages;
* **3DH**: one more level over groups of :data:`NODES_PER_GROUP`
  nodes (Section 4.3), priced only.

NCCL pays a barrier between hierarchical phases; **MSCCL** fuses them,
and **LL128** trades a ~5% bandwidth cap for much lower per-message
overhead (Figure 21).
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
    "Link",
    "Copy",
    "Exchange",
    "A2ASchedule",
    "CollectiveCostModel",
    "NODES_PER_GROUP",
    "a2a_schedule",
    "a2a_time",
    "all_gather_time",
    "reduce_scatter_time",
    "best_a2a_algorithm",
    "feasible_a2a_algorithms",
]


class A2AAlgorithm(enum.Enum):
    """All-to-All algorithms with a phase list."""

    LINEAR = "linear"
    NAIVE_LOCAL_AGG = "naive_local_agg"
    TWO_DH = "2dh"
    THREE_DH = "3dh"


class Protocol(enum.Enum):
    """NCCL transfer protocol (Section 4.3)."""

    SIMPLE = "simple"
    LL128 = "ll128"


class Impl(enum.Enum):
    """Implementation backend for hierarchical algorithms."""

    NCCL = "nccl"          # ncclSend/ncclRecv with inter-phase barriers
    MSCCL = "msccl"        # fused DSL-compiled schedule, no barriers


class Link(enum.Enum):
    """Which channel a message rides."""

    INTRA = "intra"   # NVLink / NVSwitch inside a node
    RAIL = "rail"     # NIC at full rate: on-rail, or any peer of a flat fabric
    CROSS = "cross"   # NIC between different local ranks of a railed fabric


@dataclass(frozen=True)
class Copy:
    """On-device stride copy of ``nbytes`` in contiguous ``run``-byte runs."""

    nbytes: float
    run: float


@dataclass(frozen=True)
class Exchange:
    """Each GPU sends ``messages`` messages of ``nbytes`` over ``link``,
    ``rounds`` times in a row."""

    link: Link
    messages: int
    nbytes: float
    rounds: int = 1


@dataclass(frozen=True)
class A2ASchedule:
    """One GPU's phases, the NCCL barriers between them, and whether
    the NVLink and NIC exchanges overlap instead of running in turn."""

    phases: tuple[Copy | Exchange, ...]
    barriers: int = 0
    overlap: bool = False


#: Nodes per 3DH group: the long-haul fan-out scales with the group
#: count ``nnodes / NODES_PER_GROUP`` instead of the node count.
NODES_PER_GROUP = 16


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
        Synchronization cost between hierarchical phases in the NCCL
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


def _exchange(link: Link, messages: int, nbytes: float,
              rounds: int = 1) -> tuple[Exchange, ...]:
    """The exchange as a one-phase tuple, empty when it sends nothing."""
    return (Exchange(link, messages, nbytes, rounds),) if messages else ()


def a2a_schedule(topo: ClusterTopology, total_bytes: float,
                 algorithm: A2AAlgorithm) -> A2ASchedule:
    """``algorithm``'s phases for one GPU holding ``total_bytes`` (``S``).

    Exchanges of zero messages are left out, and a one-GPU world or an
    empty buffer has no phases at all.
    """
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    n = topo.num_gpus
    if n == 1 or total_bytes == 0:
        return A2ASchedule(())
    m = topo.local_size
    nnodes = topo.num_nodes
    chunk = total_bytes / n

    if algorithm is A2AAlgorithm.LINEAR:
        inter_peers = n - m
        if topo.rail_optimized:
            # Only the peers with our own local rank are on-rail.
            on_rail = inter_peers // m
            inter = (_exchange(Link.RAIL, on_rail, chunk)
                     + _exchange(Link.CROSS, inter_peers - on_rail, chunk))
        else:
            inter = _exchange(Link.RAIL, inter_peers, chunk)
        return A2ASchedule(_exchange(Link.INTRA, m - 1, chunk) + inter,
                           overlap=True)
    if algorithm is A2AAlgorithm.NAIVE_LOCAL_AGG:
        # n/m intra-node rounds over non-contiguous S/n chunks: the
        # fixed costs and scattered reads grow with n although the
        # bytes per GPU stay S * (m-1)/m.
        return A2ASchedule(
            _exchange(Link.INTRA, m - 1, chunk, max(1, nnodes))
            + (Copy(total_bytes, chunk),)
            + _exchange(Link.RAIL, nnodes - 1, m * chunk))
    if algorithm is A2AAlgorithm.TWO_DH:
        # Both stride copies move S/n chunks; phase 4 sends nnodes - 1
        # on-rail messages, so its overhead scales with n/m, not n.
        return A2ASchedule(
            (Copy(total_bytes, chunk),)
            + _exchange(Link.INTRA, m - 1, total_bytes / m)
            + (Copy(total_bytes, chunk),)
            + _exchange(Link.RAIL, nnodes - 1, m * chunk), barriers=3)
    if algorithm is A2AAlgorithm.THREE_DH:
        g = min(NODES_PER_GROUP, nnodes)
        groups = max(1, nnodes // NODES_PER_GROUP)
        return A2ASchedule(
            (Copy(total_bytes, chunk),)
            + _exchange(Link.INTRA, m - 1, total_bytes / m)
            + (Copy(total_bytes, chunk * m),)
            + _exchange(Link.RAIL, g - 1, m * chunk)
            + (Copy(total_bytes, chunk * m * g),)
            + _exchange(Link.RAIL, groups - 1, m * g * chunk), barriers=5)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _phase_time(topo: ClusterTopology, phase: Copy | Exchange,
                protocol: Protocol = Protocol.SIMPLE,
                model: CollectiveCostModel = _DEFAULT) -> float:
    """Seconds of one phase: the only place a record meets a link."""
    if isinstance(phase, Copy):
        return stride_memcpy_time(topo.gpu, phase.nbytes, phase.run)
    link = topo.intra_link if phase.link is Link.INTRA else topo.inter_link
    if protocol is not Protocol.SIMPLE:
        link = LinkSpec(
            bandwidth=link.bandwidth * model.ll128_bandwidth_factor,
            latency=link.latency * 0.5,
            message_overhead=link.message_overhead
            * model.ll128_overhead_factor)
    if phase.link is Link.CROSS:
        link = LinkSpec(
            bandwidth=link.bandwidth * model.cross_rail_bandwidth,
            latency=link.latency,
            message_overhead=link.message_overhead
            * model.cross_rail_overhead)
    return phase.rounds * link.stream_time(phase.nbytes, phase.messages)


def a2a_time(topo: ClusterTopology, total_bytes: float,
             algorithm: A2AAlgorithm,
             protocol: Protocol = Protocol.SIMPLE,
             impl: Impl = Impl.NCCL,
             model: CollectiveCostModel = _DEFAULT) -> float:
    """Latency of ``algorithm``'s phase list on ``topo``.

    Phases run in turn, summed left to right; in an overlapping list
    (linear) the NIC exchanges run beside the NVLink ones and the
    slower stream sets the time.  NCCL adds one barrier per phase
    boundary of a hierarchical list.
    """
    schedule = a2a_schedule(topo, total_bytes, algorithm)
    total = nic = 0.0
    for phase in schedule.phases:
        seconds = _phase_time(topo, phase, protocol, model)
        if schedule.overlap and phase.link is not Link.INTRA:
            nic += seconds
        else:
            total += seconds
    if schedule.overlap:
        total = max(total, nic)
    if impl is Impl.NCCL:
        total += schedule.barriers * model.phase_barrier
    return total


def best_a2a_algorithm(topo: ClusterTopology, total_bytes: float,
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
        algo: a2a_time(topo, total_bytes, algo)
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


# Ring collectives used by the parallelism strategies: g - 1 steps over
# the bottleneck link of the ring.

def _ring_time(topo: ClusterTopology, group_size: int | None,
               step_bytes) -> float:
    g = topo.num_gpus if group_size is None else group_size
    if g < 1:
        raise ValueError(f"group_size must be >= 1, got {g}")
    if g == 1:
        return 0.0
    link = Link.INTRA if g <= topo.local_size else Link.RAIL
    return _phase_time(topo, Exchange(link, g - 1, step_bytes(g)))


def all_gather_time(topo: ClusterTopology, shard_bytes: float,
                    group_size: int | None = None) -> float:
    """Ring all-gather of per-rank shards of ``shard_bytes``."""
    return _ring_time(topo, group_size, lambda g: shard_bytes)


def reduce_scatter_time(topo: ClusterTopology, total_bytes: float,
                        group_size: int | None = None) -> float:
    """Ring reduce-scatter of a ``total_bytes`` buffer."""
    return _ring_time(topo, group_size, lambda g: total_bytes / g)
