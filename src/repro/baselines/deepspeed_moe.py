"""DeepSpeed-MoE-style baseline.

The paper's Figure 7 measures DeepSpeed's fflayer computation time: it
follows the same GShard computation logic as Fairseq and consumes the
raw All-to-All output layout ``(W, dE, dC, M)``, so its
``bgemm_strided_batched`` row count shrinks as the world grows — the
11.3x slowdown at 2,048 GPUs.  DeepSpeed's encode kernels are somewhat
better optimized than Fairseq's, but it still lacks Flexible
All-to-All, adaptive pipelining and switchable parallelism, so its
execution profile is :data:`repro.runtime.plan.FAIRSEQ_FEATURES`.
"""

from __future__ import annotations

from repro.cluster.gemm import expert_ffn_time
from repro.cluster.topology import ClusterTopology
from repro.core.config import MoEConfig
from repro.parallel.strategy import Parallelism, build_segment_spec

__all__ = [
    "deepspeed_fflayer_time",
]


def deepspeed_fflayer_time(cfg: MoEConfig, topo: ClusterTopology) -> float:
    """Pure fflayer time in the raw A2A layout (paper Figure 7).

    The expert GEMM runs as ``W * dE`` batched problems of ``dC`` rows
    each — per-GPU FLOPs stay constant under weak scaling but the
    per-problem row count collapses with ``W``.
    """
    spec = build_segment_spec(cfg, Parallelism.EP, flexible_a2a=False)
    return expert_ffn_time(topo.gpu, spec.expert_batch, spec.expert_rows,
                           spec.model_dim, spec.hidden_dim)
