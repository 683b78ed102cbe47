"""GPU-time models for the non-GEMM kernels of an MoE layer.

Covers the encode/decode cost gap of paper Section 4.2 / Figure 24:

* the **dense** GShard/Fairseq encode is an einsum equivalent to a
  ``(E*dC, T) x (T, M)`` GEMM — ``O(T * E * dC * M)`` multiply-adds,
  nearly all of them against zeros;
* the **sparse** Tutel fast encode/decode moves exactly the routed
  elements — ``O(T * k * M)`` — and is memory-bound, so its time is
  bytes over HBM bandwidth plus a kernel launch.  Encode (scatter) and
  decode (weighted gather) move the same bytes, so one scatter model
  prices both;
* **gating** (softmax + top-k + locations cumsum) is memory-bound in
  ``O(T * E)`` — the term that makes Figure 23's curve (6) rise slowly
  with scale, since ``E`` grows with the world size.
"""

from __future__ import annotations

from repro.cluster.gemm import batched_gemm_time
from repro.cluster.topology import GpuSpec
from repro.core.config import MoEConfig

__all__ = [
    "gating_time",
    "dense_encode_time",
    "dense_decode_time",
    "sparse_scatter_bytes",
    "sparse_scatter_time",
    "encode_decode_time",
]

_GATE_PASSES = 6.0   # logits read/write, softmax, top-k, cumsum, one-hot
_FP32 = 4


def gating_time(cfg: MoEConfig, gpu: GpuSpec) -> float:
    """Softmax + top-k + location computation over ``(T, E)`` scores."""
    elements = cfg.tokens_per_gpu * cfg.num_global_experts
    gemm_flops = 2.0 * cfg.tokens_per_gpu * cfg.model_dim \
        * cfg.num_global_experts
    gate_gemm = gemm_flops / (gpu.peak_flops * 0.5)
    streaming = _GATE_PASSES * elements * _FP32 / gpu.memory_bandwidth
    return 3 * gpu.kernel_launch_overhead + gate_gemm + streaming


def dense_encode_time(cfg: MoEConfig, gpu: GpuSpec) -> float:
    """Dense dispatch einsum ``"tec,tm->ecm"`` as a GEMM.

    Shapes: ``(E*dC, T) x (T, M)`` — the contraction length is the
    token count, so the cost scales with ``T^2`` once capacity tracks
    the batch size.  Materializing the ``(T, E, dC)`` mask adds a
    memory-bound pass.
    """
    rows = cfg.num_global_experts * cfg.capacity_per_gpu
    gemm_time = batched_gemm_time(gpu, 1, rows, cfg.tokens_per_gpu,
                                  cfg.model_dim)
    mask_bytes = (cfg.tokens_per_gpu * cfg.num_global_experts
                  * cfg.capacity_per_gpu * _FP32)
    mask_time = 2.0 * mask_bytes / gpu.memory_bandwidth
    return gemm_time + mask_time + gpu.kernel_launch_overhead


def dense_decode_time(cfg: MoEConfig, gpu: GpuSpec) -> float:
    """Dense combine einsum ``"tec,ecm->tm"`` — the mirror GEMM."""
    inner = cfg.num_global_experts * cfg.capacity_per_gpu
    gemm_time = batched_gemm_time(gpu, 1, cfg.tokens_per_gpu, inner,
                                  cfg.model_dim)
    combine_bytes = (cfg.tokens_per_gpu * cfg.num_global_experts
                     * cfg.capacity_per_gpu * _FP32)
    return (gemm_time + 2.0 * combine_bytes / gpu.memory_bandwidth
            + gpu.kernel_launch_overhead)


def sparse_scatter_bytes(cfg: MoEConfig) -> float:
    """Bytes one sparse encode or decode (K0/K1) moves.

    The routed rows are read and written (2x), plus one zero-fill pass
    over the ``(E, dC, M)`` capacity buffer.
    """
    routed_bytes = (cfg.top_k * cfg.tokens_per_gpu * cfg.model_dim
                    * cfg.dtype_bytes)
    buffer_bytes = (cfg.num_global_experts * cfg.capacity_per_gpu
                    * cfg.model_dim * cfg.dtype_bytes)
    return 2.0 * routed_bytes + buffer_bytes


def sparse_scatter_time(cfg: MoEConfig, gpu: GpuSpec) -> float:
    """Tutel fast_encode / fast_decode: memory-bound SIMT scatter or
    weighted gather of ``O(T * k * M)`` elements."""
    return (gpu.kernel_launch_overhead
            + sparse_scatter_bytes(cfg) / gpu.memory_bandwidth)


def encode_decode_time(cfg: MoEConfig, gpu: GpuSpec,
                       fast: bool) -> tuple[float, float]:
    """(encode, decode) kernel times for the selected implementation."""
    if fast:
        scatter = sparse_scatter_time(cfg, gpu)
        return scatter, scatter
    return dense_encode_time(cfg, gpu), dense_decode_time(cfg, gpu)
