"""Simulated GPU cluster substrate: topology, cost models, event engine."""

from repro.cluster.gemm import GemmModel, batched_gemm_time, expert_ffn_time
from repro.cluster.linkmodel import (
    a2a_bus_bandwidth,
    contiguous_memcpy_time,
    ib_write_bandwidth_curve,
    pairwise_exchange_time,
    stride_memcpy_time,
)
from repro.cluster.memory import (
    MemoryBreakdown,
    dense_moe_memory,
    sparse_moe_memory,
)
from repro.cluster.simulator import (
    InterferenceModel,
    Op,
    Schedule,
    SimResult,
    simulate,
)
from repro.cluster.topology import (
    ClusterTopology,
    GpuSpec,
    LinkSpec,
    ndv4_topology,
    nvswitch256_topology,
)

__all__ = [
    "GemmModel",
    "batched_gemm_time",
    "expert_ffn_time",
    "a2a_bus_bandwidth",
    "contiguous_memcpy_time",
    "ib_write_bandwidth_curve",
    "pairwise_exchange_time",
    "stride_memcpy_time",
    "MemoryBreakdown",
    "dense_moe_memory",
    "sparse_moe_memory",
    "InterferenceModel",
    "Op",
    "Schedule",
    "SimResult",
    "simulate",
    "ClusterTopology",
    "GpuSpec",
    "LinkSpec",
    "ndv4_topology",
    "nvswitch256_topology",
]
