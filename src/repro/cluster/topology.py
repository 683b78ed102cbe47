"""Cluster topology model: nodes, GPUs, NVLink and InfiniBand fabrics.

The evaluation testbed of the paper is Azure Standard_ND96amsr_A100_v4:
8x A100 SXM 80GB per VM connected by 3rd-gen NVLink/NVSwitch, and one
200 Gb/s HDR InfiniBand NIC per GPU into a non-blocking, rail-optimized
fabric.  :func:`ndv4_topology` builds that configuration; everything is
a parameter so other machines (e.g. the 256-GPU NVSwitch extension of
Section 4.3) can be modelled too.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LinkSpec",
    "GpuSpec",
    "ClusterTopology",
    "ndv4_topology",
    "nvswitch256_topology",
]


@dataclass(frozen=True)
class LinkSpec:
    """An alpha-beta communication channel with per-message overhead.

    Attributes
    ----------
    bandwidth:
        Peak unidirectional bandwidth in bytes/second available to one
        GPU over this fabric.
    latency:
        Base one-way latency ``alpha`` in seconds (wire + switch).
    message_overhead:
        Fixed per-message cost in seconds (kernel launch, proxy thread,
        rendezvous).  This term is what makes many small messages slow
        and produces the under-utilization of paper Figure 6.
    """

    bandwidth: float
    latency: float
    message_overhead: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.latency < 0 or self.message_overhead < 0:
            raise ValueError("latency and message_overhead must be >= 0")

    def message_time(self, nbytes: float) -> float:
        """Time to push one ``nbytes`` message through this channel."""
        if nbytes < 0:
            raise ValueError(f"message size must be >= 0, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.message_overhead + self.latency + nbytes / self.bandwidth

    def stream_time(self, nbytes: float, num_messages: int) -> float:
        """Time for one GPU to serialize ``num_messages`` equal messages.

        The channel pays the base latency once (messages are pipelined)
        but the per-message overhead for every message.
        """
        if num_messages < 0:
            raise ValueError(f"num_messages must be >= 0, got {num_messages}")
        if num_messages == 0 or nbytes == 0:
            return 0.0
        return (self.latency + num_messages * self.message_overhead
                + num_messages * nbytes / self.bandwidth)

    def effective_bandwidth(self, nbytes: float) -> float:
        """Achieved bandwidth for a single message of ``nbytes``."""
        if nbytes <= 0:
            raise ValueError(f"message size must be > 0, got {nbytes}")
        return nbytes / self.message_time(nbytes)


@dataclass(frozen=True)
class GpuSpec:
    """Compute capabilities of one GPU.

    Attributes
    ----------
    peak_flops:
        Peak dense-math throughput in FLOP/s at the working precision.
    memory_bandwidth:
        HBM bandwidth in bytes/second (drives stride-copy costs).
    memory_bytes:
        Device memory capacity in bytes.
    kernel_launch_overhead:
        Fixed per-kernel launch cost in seconds.
    """

    peak_flops: float = 312e12        # A100 FP16 tensor core peak
    memory_bandwidth: float = 1.6e12  # sustainable HBM2e bandwidth
    memory_bytes: float = 80 * 1024 ** 3
    kernel_launch_overhead: float = 5e-6

    def __post_init__(self) -> None:
        if min(self.peak_flops, self.memory_bandwidth, self.memory_bytes) <= 0:
            raise ValueError("GPU capability values must be > 0")
        if self.kernel_launch_overhead < 0:
            raise ValueError("kernel_launch_overhead must be >= 0")


@dataclass(frozen=True)
class ClusterTopology:
    """A two-level GPU cluster: fast intra-node links, slower inter-node.

    Attributes
    ----------
    num_gpus:
        Total world size ``n``.
    gpus_per_node:
        Local group size ``m`` (8 on NDv4; 256 with next-gen NVSwitch).
    gpu:
        Per-GPU compute model.
    intra_link:
        NVLink/NVSwitch channel model per GPU.
    inter_link:
        InfiniBand channel model per GPU (one NIC per GPU on NDv4).
    rail_optimized:
        Whether the inter-node fabric is rail-optimized — local rank
        ``i`` of every node shares a rail.  2DH naturally keeps traffic
        on-rail (paper Section 3.4).
    """

    num_gpus: int
    gpus_per_node: int
    gpu: GpuSpec
    intra_link: LinkSpec
    inter_link: LinkSpec
    rail_optimized: bool = True

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError(f"num_gpus must be >= 1, got {self.num_gpus}")
        if self.gpus_per_node < 1:
            raise ValueError(
                f"gpus_per_node must be >= 1, got {self.gpus_per_node}")

    @property
    def num_nodes(self) -> int:
        return max(1, -(-self.num_gpus // self.gpus_per_node))

    @property
    def local_size(self) -> int:
        """Effective intra-node group size (min of m and world size)."""
        return min(self.gpus_per_node, self.num_gpus)

    def node_of(self, rank: int) -> int:
        self._check_rank(rank)
        return rank // self.gpus_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def link_between(self, a: int, b: int) -> LinkSpec:
        """Channel model for traffic between ranks ``a`` and ``b``."""
        return self.intra_link if self.same_node(a, b) else self.inter_link

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_gpus:
            raise ValueError(
                f"rank {rank} out of range for {self.num_gpus} GPUs")

    def with_num_gpus(self, num_gpus: int) -> "ClusterTopology":
        """Same hardware, different world size (for scaling sweeps)."""
        from dataclasses import replace
        return replace(self, num_gpus=num_gpus)

    def with_infinite_bandwidth(self) -> "ClusterTopology":
        """Both fabrics with unbounded bandwidth, per-message costs kept.

        The counterfactual behind the what-if analysis
        (:mod:`repro.obs.analysis`): collective time collapses to its
        alpha/overhead floor, so any remaining makespan gap is latency-
        or compute-bound and no bandwidth upgrade can recover it.
        """
        from dataclasses import replace
        import math
        unbounded = [LinkSpec(bandwidth=math.inf, latency=link.latency,
                              message_overhead=link.message_overhead)
                     for link in (self.intra_link, self.inter_link)]
        return replace(self, intra_link=unbounded[0],
                       inter_link=unbounded[1])

    def with_gpu(self, gpu: GpuSpec) -> "ClusterTopology":
        """Same fabric, different per-GPU compute model (calibration)."""
        from dataclasses import replace
        return replace(self, gpu=gpu)

    def with_links(self, link: LinkSpec) -> "ClusterTopology":
        """One fitted channel model for both fabrics (calibration): the
        single-machine calibration harness cannot distinguish them."""
        from dataclasses import replace
        return replace(self, intra_link=link, inter_link=link)

    def with_degraded_inter_link(self, factor: float) -> "ClusterTopology":
        """Inter-node fabric derated to ``factor`` of nominal bandwidth.

        Models a degraded link (cable re-train, congested rail) for the
        resilience path: bandwidth shrinks while per-message costs stay
        — exactly the regime where algorithm re-selection matters.
        """
        from dataclasses import replace
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        degraded = LinkSpec(
            bandwidth=self.inter_link.bandwidth * factor,
            latency=self.inter_link.latency,
            message_overhead=self.inter_link.message_overhead,
        )
        return replace(self, inter_link=degraded)


def ndv4_topology(num_gpus: int, gpus_per_node: int = 8) -> ClusterTopology:
    """The Azure NDv4 testbed used throughout the paper's evaluation.

    Calibration notes: NVLink3 gives each A100 about 300 GB/s of
    all-to-all bandwidth through NVSwitch; each GPU owns a 200 Gb/s HDR
    NIC (25 GB/s).  Message overheads are set so that the measured
    shapes of paper Figure 6 (bandwidth cliff below ~1 MiB messages) and
    Figure 20 (2DH crossover) are reproduced.
    """
    return ClusterTopology(
        num_gpus=num_gpus,
        gpus_per_node=gpus_per_node,
        gpu=GpuSpec(),
        intra_link=LinkSpec(bandwidth=300e9, latency=2e-6,
                            message_overhead=1.2e-6),
        inter_link=LinkSpec(bandwidth=25e9, latency=4e-6,
                            message_overhead=3.0e-6),
    )


def nvswitch256_topology(num_gpus: int) -> ClusterTopology:
    """Next-generation NVSwitch domain of up to 256 GPUs (Section 4.3).

    Models the extension the paper proposes: with ``m = 256`` the
    inter-node fan-out ``n/m`` stays small even at 100K-GPU scale.
    """
    return ClusterTopology(
        num_gpus=num_gpus,
        gpus_per_node=256,
        gpu=GpuSpec(),
        intra_link=LinkSpec(bandwidth=450e9, latency=2.5e-6,
                            message_overhead=1.2e-6),
        inter_link=LinkSpec(bandwidth=50e9, latency=4e-6,
                            message_overhead=3.0e-6),
    )
