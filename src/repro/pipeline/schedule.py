"""Multi-stream pipeline schedules for the MoE inner segment.

Builds the event-simulator schedule for the segment that adaptive
pipelining overlaps: dispatch All-to-All -> expert fflayer -> combine
All-to-All, chunked into ``degree`` virtual capacity partitions
(Figure 14).  Communication chunks run on the representative GPU's
communication stream and experts on its computation stream; the
simulator's interference model applies the concurrent-kernel slowdown
that makes the jointly optimal (algorithm, degree) pair workload
dependent (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.gemm import expert_ffn_time
from repro.cluster.simulator import Schedule, simulate
from repro.cluster.topology import ClusterTopology
from repro.collectives.schedule import A2AAlgorithm, Impl, Protocol, a2a_time
from repro.core.config import MoEConfig
from repro.parallel.strategy import (
    Parallelism,
    SegmentSpec,
    build_segment_spec,
)

__all__ = [
    "PipelineStrategy",
    "all_strategies",
    "build_segment_schedule",
    "segment_time",
    "build_pipeline_schedule",
    "pipeline_segment_time",
]

#: Pipelining degrees of the search space: each splits the capacity
#: dimension of the dispatch buffer into that many virtual partitions.
VALID_DEGREES = (1, 2, 4, 8)


@dataclass(frozen=True)
class PipelineStrategy:
    """One point of the adaptive-pipelining search space.

    The space matches the paper's evaluation: pipelining degrees
    {1, 2, 4, 8} crossed with the Linear and 2DH All-to-All algorithms.
    """

    degree: int = 1
    algorithm: A2AAlgorithm = A2AAlgorithm.LINEAR
    protocol: Protocol = Protocol.SIMPLE
    impl: Impl = Impl.NCCL

    def __post_init__(self) -> None:
        if self.degree not in VALID_DEGREES:
            raise ValueError(
                f"degree must be one of {VALID_DEGREES}, got {self.degree}")

    def describe(self) -> str:
        return f"{self.algorithm.value}/deg{self.degree}"


def all_strategies() -> list[PipelineStrategy]:
    """The full static strategy grid: 8 entries, linear then 2DH."""
    return [PipelineStrategy(degree=d, algorithm=a)
            for a in (A2AAlgorithm.LINEAR, A2AAlgorithm.TWO_DH)
            for d in VALID_DEGREES]


def _comm_kind(algorithm: A2AAlgorithm) -> str:
    """2DH launches SM-occupying stride-copy kernels; plain P2P does
    not — they interfere with compute differently."""
    return ("comm_memcpy" if algorithm is A2AAlgorithm.TWO_DH
            else "comm")


def build_segment_schedule(spec: SegmentSpec, topo: ClusterTopology,
                           strategy: PipelineStrategy,
                           training: bool = False) -> Schedule:
    """Op DAG of the pipelined dispatch-expert-combine segment.

    One representative GPU is modelled (symmetric collective work).
    Chunk ``i`` contributes three ops — dispatch A2A, expert compute,
    combine A2A — with chained dependencies; same-stream ops serialize
    FIFO, which realizes exactly the overlap pattern of Figure 14.
    """
    degree = strategy.degree
    chunk_bytes = spec.a2a_bytes / degree
    a2a_chunk = a2a_time(topo, chunk_bytes, strategy.algorithm,
                         strategy.protocol, strategy.impl)
    # The bandwidth-independent floor of each A2A chunk (same payload
    # through an unbounded fabric): feeds the infinite-bandwidth
    # what-if bound in repro.obs.analysis.
    a2a_floor = min(a2a_chunk, a2a_time(
        topo.with_infinite_bandwidth(), chunk_bytes, strategy.algorithm,
        strategy.protocol, strategy.impl))
    rows_chunk = max(1, spec.expert_rows // degree)
    expert_chunk = expert_ffn_time(topo.gpu, spec.expert_batch, rows_chunk,
                                   spec.model_dim, spec.hidden_dim,
                                   backward=training)
    kind = _comm_kind(strategy.algorithm)

    schedule = Schedule()
    # Comm-stream FIFO order is [d0 .. d_{n-1}, c0 .. c_{n-1}]: all
    # dispatch chunks are enqueued ahead of any combine so a pending
    # combine never blocks the next dispatch (Figure 14's schedule).
    dispatches = [schedule.new_op(
        work=a2a_chunk, gpu=0, stream="comm", kind=kind,
        latency=a2a_floor, label=f"a2a_dispatch[{i}]")
        for i in range(degree)]
    experts = [schedule.new_op(
        work=expert_chunk, gpu=0, stream="compute", kind="compute",
        deps=(dispatches[i],), label=f"expert[{i}]")
        for i in range(degree)]
    combines = [schedule.new_op(
        work=a2a_chunk, gpu=0, stream="comm", kind=kind,
        latency=a2a_floor, deps=(experts[i],), label=f"a2a_combine[{i}]")
        for i in range(degree)]
    schedule.new_op(work=0.0, gpu=0, stream="compute", kind="host",
                    deps=tuple(combines), label="barrier")
    return schedule


def segment_time(spec: SegmentSpec, topo: ClusterTopology,
                 strategy: PipelineStrategy, training: bool = False) -> float:
    """Makespan of the pipelined segment under a strategy."""
    return simulate(
        build_segment_schedule(spec, topo, strategy, training)).makespan


def build_pipeline_schedule(cfg: MoEConfig, topo: ClusterTopology,
                            strategy: PipelineStrategy,
                            training: bool = False) -> Schedule:
    """Convenience wrapper: the EP segment of a plain :class:`MoEConfig`."""
    return build_segment_schedule(build_segment_spec(cfg, Parallelism.EP),
                                  topo, strategy, training)


def pipeline_segment_time(cfg: MoEConfig, topo: ClusterTopology,
                          strategy: PipelineStrategy,
                          training: bool = False) -> float:
    """Makespan of the EP segment of a plain :class:`MoEConfig`."""
    return segment_time(build_segment_spec(cfg, Parallelism.EP), topo,
                        strategy, training)
