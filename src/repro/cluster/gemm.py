"""Batched-GEMM cost model with layout-dependent efficiency.

Paper Figure 7 shows the fflayer computation of DeepSpeed MoE slowing
down 11.3x from 1 to 2,048 GPUs at a *constant* per-GPU workload.  The
cause is the All-to-All output layout ``(W, dE, dC, M)``: the row count
of each matrix in the ``bgemm_strided_batched`` call shrinks from
16,384 to 8 as ``W`` grows, and an (8 x M) x (M x V) GEMM achieves only
8.8% of the throughput of the tall one.

We model per-matrix efficiency as a saturating function of the row
count (the dimension the hardware tiles over), which is the standard
roofline-style approximation: tiny matrices are bound by scheduling and
memory movement rather than math.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import GpuSpec

__all__ = [
    "GemmModel",
    "batched_gemm_time",
    "expert_ffn_time",
]


@dataclass(frozen=True)
class GemmModel:
    """Efficiency model ``eta(rows) = eta_max * rows / (rows + rows_half)``.

    ``rows_half`` is the row count at which half the peak efficiency is
    reached.  The default is calibrated so that ``eta(8)/eta(16384)``
    is about 8.8%, matching the measurement quoted in Section 2.4.
    """

    eta_max: float = 0.62
    rows_half: float = 82.0

    def __post_init__(self) -> None:
        if not 0 < self.eta_max <= 1:
            raise ValueError(f"eta_max must be in (0, 1], got {self.eta_max}")
        if self.rows_half <= 0:
            raise ValueError(f"rows_half must be > 0, got {self.rows_half}")

    def efficiency(self, rows: int) -> float:
        """Fraction of peak FLOP/s achieved at a given row count."""
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        return self.eta_max * rows / (rows + self.rows_half)


def batched_gemm_time(gpu: GpuSpec, batch: int, rows: int, inner: int,
                      cols: int, model: GemmModel | None = None) -> float:
    """Time of ``bgemm_strided_batched`` computing (batch, rows, inner)
    x (inner, cols) on one GPU.

    The whole batch launches as one kernel, so the launch overhead is
    paid once; the math time is FLOPs over layout-adjusted throughput.
    """
    model = model or GemmModel()
    if min(batch, rows, inner, cols) < 1:
        raise ValueError("all GEMM dimensions must be >= 1")
    flops = 2.0 * batch * rows * inner * cols
    throughput = gpu.peak_flops * model.efficiency(rows)
    return gpu.kernel_launch_overhead + flops / throughput


def expert_ffn_time(gpu: GpuSpec, batch: int, rows: int, model_dim: int,
                    hidden_dim: int, backward: bool = False) -> float:
    """Time of one expert feed-forward layer on one GPU.

    The fflayer is two GEMMs, ``(rows, M) x (M, V)`` then
    ``(rows, V) x (V, M)``, batched over ``batch`` independent expert
    problems (the layout produced by All-to-All).  The backward pass
    costs twice the forward (grad wrt input + grad wrt weights).
    """
    forward = (batched_gemm_time(gpu, batch, rows, model_dim, hidden_dim)
               + batched_gemm_time(gpu, batch, rows, hidden_dim, model_dim))
    return 3.0 * forward if backward else forward
