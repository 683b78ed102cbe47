"""SwinV2 / SwinV2-MoE workload model (paper Section 5.3).

SwinV2-MoE replaces every other feed-forward layer of Swin Transformer
V2 with an MoE layer, except in the first two network stages.  With the
standard depths ``[2, 2, 18, 2]`` that yields 9 MoE layers in stage 3
and 1 in stage 4 — the "10 total MoE layers" of paper Figure 1.

The model provides:

* exact parameter counts (dense and MoE variants, active parameters),
  matching Table 11's ``#param`` column;
* exact inference GFLOPs as a function of ``k`` and ``f``, matching
  Table 12 (MoE fflayer work scales with ``k * f``);
* end-to-end step-time estimation: the dense backbone rate is a
  calibration constant taken from the paper's measured dense rows, and
  each MoE layer's overhead comes from the runtime cost models — this
  regenerates Table 8's train/inference images-per-second.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import ndv4_topology
from repro.core.config import MoEConfig
from repro.runtime.plan import ExecutionFeatures, MoEStepBreakdown, moe_step_time

__all__ = [
    "SwinVariant",
    "SWINV2_S",
    "SWINV2_B",
    "SWINV2_THIN_TINY",
    "moe_parameter_count",
    "inference_gflops",
    "SwinMoESpeed",
    "swinv2_moe_speed",
]

_MLP_RATIO = 4
_TRAIN_FLOP_FACTOR = 3.0  # backward ~ 2x forward
# The Table 8 MoE setting: 32 experts, top-1 routing at f = 1.0, and
# 128 images per GPU.
_NUM_EXPERTS = 32
_TOP_K = 1
_CAPACITY_FACTOR = 1.0
_BATCH_PER_GPU = 128


@dataclass(frozen=True)
class SwinVariant:
    """Geometry + dense-baseline calibration of one SwinV2 size.

    ``dense_train_rate`` / ``dense_infer_rate`` are the measured dense
    per-GPU images/second from paper Table 8 & 11 — the calibration
    anchor for end-to-end speed estimates.
    """

    name: str
    embed_dim: int
    depths: tuple[int, int, int, int]
    input_resolution: int = 192
    patch_size: int = 4
    dense_params: float = 0.0          # from the paper's Table 11
    dense_gflops: float = 0.0
    dense_train_rate: float = 0.0      # images/s per GPU
    dense_infer_rate: float = 0.0

    @property
    def stage_dims(self) -> tuple[int, ...]:
        return tuple(self.embed_dim * 2 ** i for i in range(4))

    @property
    def stage_tokens(self) -> tuple[int, ...]:
        """Tokens per image in each stage (spatial downsampling by 2)."""
        base = self.input_resolution // self.patch_size
        return tuple((base // 2 ** i) ** 2 for i in range(4))

    def moe_layer_plan(self) -> list[tuple[int, int, int]]:
        """(stage, dim, tokens-per-image) of every MoE layer.

        Every other block of stages 3 and 4 (0-indexed 2 and 3) hosts
        an MoE layer.
        """
        plan = []
        for stage in (2, 3):
            count = self.depths[stage] // 2
            for _ in range(count):
                plan.append((stage, self.stage_dims[stage],
                             self.stage_tokens[stage]))
        return plan

    def moe_ffn_gflops(self) -> float:
        """Per-image compute of the fflayers that become MoE, at
        ``k = f = 1`` (each token through one expert).

        Counted as multiply-accumulates, the convention behind the
        paper's (and the vision literature's) "GFLOPs" columns —
        verified against the Table 12 deltas.
        """
        total = 0.0
        for _, dim, tokens in self.moe_layer_plan():
            total += tokens * 2 * dim * (dim * _MLP_RATIO)
        return total / 1e9


SWINV2_S = SwinVariant(
    name="SwinV2-S", embed_dim=96, depths=(2, 2, 18, 2),
    dense_params=65.8e6, dense_gflops=6.76,
    dense_train_rate=350.0, dense_infer_rate=1604.0)

SWINV2_B = SwinVariant(
    name="SwinV2-B", embed_dim=128, depths=(2, 2, 18, 2),
    dense_params=109.3e6, dense_gflops=11.78,
    dense_train_rate=288.0, dense_infer_rate=1195.0)

# The "thin-tiny" variant of Figure 1 (a slimmed SwinV2-T).
SWINV2_THIN_TINY = SwinVariant(
    name="SwinV2-thin-tiny", embed_dim=64, depths=(2, 2, 6, 2),
    dense_params=12.0e6, dense_gflops=1.2,
    dense_train_rate=1400.0, dense_infer_rate=5200.0)


def moe_parameter_count(variant: SwinVariant, num_experts: int) -> float:
    """Total parameters of the MoE variant (Table 11 ``#param``).

    Each MoE layer adds ``E - 1`` extra expert fflayers on top of the
    dense model's single fflayer.
    """
    if num_experts < 1:
        raise ValueError(f"num_experts must be >= 1, got {num_experts}")
    extra = 0.0
    for _, dim, _ in variant.moe_layer_plan():
        expert_params = 2 * dim * (dim * _MLP_RATIO)
        extra += (num_experts - 1) * expert_params
    return variant.dense_params + extra


def inference_gflops(variant: SwinVariant, top_k: int,
                     capacity_factor: float) -> float:
    """Per-image inference GFLOPs at a (k, f) setting (Table 12).

    MoE fflayers process ``k * f * T`` token-rows instead of ``T``, so
    their FLOPs scale by ``k * f`` while the rest of the network is
    unchanged.
    """
    if top_k < 1 or capacity_factor <= 0:
        raise ValueError("top_k must be >= 1 and capacity_factor > 0")
    moe_ffn = variant.moe_ffn_gflops()
    return (variant.dense_gflops
            + moe_ffn * (top_k * capacity_factor - 1.0))


@dataclass(frozen=True)
class SwinMoESpeed:
    """Estimated end-to-end rates (images/second per GPU)."""

    train_rate: float
    infer_rate: float
    moe_train_overhead: float   # seconds per step spent in MoE layers
    moe_infer_overhead: float
    breakdowns: tuple[MoEStepBreakdown, ...]


def swinv2_moe_speed(variant: SwinVariant, features: ExecutionFeatures,
                     world: int = 8) -> SwinMoESpeed:
    """End-to-end training and inference rates of SwinV2-MoE on an
    NDv4 cluster of ``world`` GPUs.

    The dense backbone time per step is anchored at the calibrated
    dense rate; every MoE layer replaces one dense fflayer, so its
    overhead is the MoE step time *minus* the dense fflayer it
    displaced (which is already inside the dense anchor).
    """
    topo = ndv4_topology(world)
    dense_train_step = _BATCH_PER_GPU / variant.dense_train_rate
    dense_infer_step = _BATCH_PER_GPU / variant.dense_infer_rate

    moe_train = 0.0
    moe_infer = 0.0
    breakdowns: list[MoEStepBreakdown] = []
    for _, dim, tokens in variant.moe_layer_plan():
        cfg = MoEConfig(
            world_size=world, experts_per_gpu=_NUM_EXPERTS / world,
            model_dim=dim, hidden_dim=dim * _MLP_RATIO,
            tokens_per_gpu=tokens * _BATCH_PER_GPU, top_k=_TOP_K,
            capacity_factor=_CAPACITY_FACTOR)
        train_bd = moe_step_time(cfg, topo, features, training=True)
        infer_bd = moe_step_time(cfg, topo, features, training=False)
        displaced_flops = (2.0 * cfg.tokens_per_gpu * 2 * dim
                           * dim * _MLP_RATIO)
        displaced_train = (_TRAIN_FLOP_FACTOR * displaced_flops
                           / (topo.gpu.peak_flops * 0.45))
        displaced_infer = displaced_flops / (topo.gpu.peak_flops * 0.45)
        moe_train += max(0.0, train_bd.total - displaced_train)
        moe_infer += max(0.0, infer_bd.total - displaced_infer)
        breakdowns.append(train_bd)

    train_step = dense_train_step + moe_train
    infer_step = dense_infer_step + moe_infer
    return SwinMoESpeed(
        train_rate=_BATCH_PER_GPU / train_step,
        infer_rate=_BATCH_PER_GPU / infer_step,
        moe_train_overhead=moe_train,
        moe_infer_overhead=moe_infer,
        breakdowns=tuple(breakdowns))
