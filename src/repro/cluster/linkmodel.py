"""Analytic latency helpers built on :class:`LinkSpec` channels.

These helpers implement the message-level arithmetic that the paper's
Section 2.4 and 3.4 reason about: a GPU that must exchange data with
``p`` peers over a serialized channel pays ``p`` per-message overheads
plus the total bytes over the channel bandwidth.  The corresponding
under-utilization for small per-peer chunks is paper Figure 6.
"""

from __future__ import annotations

from repro.cluster.topology import ClusterTopology, GpuSpec, LinkSpec

__all__ = [
    "stride_memcpy_time",
    "contiguous_memcpy_time",
    "ib_write_bandwidth_curve",
    "a2a_bus_bandwidth",
]


# ----------------------------------------------------------------------
# On-device memory movement (2DH phases 1 & 3, naive aggregation)
# ----------------------------------------------------------------------

# Below roughly one cache line per access, scattered loads waste most of
# each DRAM transaction; efficiency recovers as chunks grow.  This is
# the effect that makes the naive local-aggregation All-to-All slow
# (Section 3.4: ~600us at n=8 up to ~5ms at n=2048 for S=128MiB, m=8)
# and that 2DH's aligned stride copies avoid.
_STRIDE_EFFICIENCY_HALF = 4096.0  # chunk bytes at half memory bandwidth


def stride_memcpy_time(gpu: GpuSpec, total_bytes: float,
                       chunk_bytes: float) -> float:
    """Time of an on-device stride copy moving ``total_bytes`` in
    contiguous runs of ``chunk_bytes``.

    A stride copy reads and writes every byte once (2x traffic) at an
    efficiency that degrades for small contiguous runs.
    """
    if total_bytes < 0 or chunk_bytes <= 0:
        raise ValueError("total_bytes must be >= 0 and chunk_bytes > 0")
    if total_bytes == 0:
        return 0.0
    efficiency = chunk_bytes / (chunk_bytes + _STRIDE_EFFICIENCY_HALF)
    bandwidth = gpu.memory_bandwidth * efficiency
    return gpu.kernel_launch_overhead + 2.0 * total_bytes / bandwidth


def contiguous_memcpy_time(gpu: GpuSpec, total_bytes: float) -> float:
    """Time of a plain contiguous device-to-device copy."""
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    if total_bytes == 0:
        return 0.0
    return (gpu.kernel_launch_overhead
            + 2.0 * total_bytes / gpu.memory_bandwidth)


# ----------------------------------------------------------------------
# Figure 6 reproductions
# ----------------------------------------------------------------------

def ib_write_bandwidth_curve(link: LinkSpec,
                             message_sizes: list[int]) -> list[float]:
    """Effective GPUDirect-RDMA write bandwidth per message size.

    Reproduces paper Figure 6a: small messages cannot saturate an HDR
    InfiniBand link because the per-message overhead dominates.
    """
    return [link.effective_bandwidth(s) for s in message_sizes]


def a2a_bus_bandwidth(topo: ClusterTopology, total_bytes: float,
                      elapsed: float) -> float:
    """nccl-tests style All-to-All bus bandwidth.

    ``busbw = (S / n) * (n - 1) / t`` — the per-GPU bytes actually
    crossing links divided by elapsed time (paper Figure 6b y-axis).
    """
    if elapsed <= 0:
        raise ValueError(f"elapsed must be > 0, got {elapsed}")
    n = topo.num_gpus
    return (total_bytes / n) * (n - 1) / elapsed
