"""Core configuration objects shared across the Tutel reproduction.

The symbols follow Table 2 of the paper:

====== =====================================================
Symbol Description
====== =====================================================
``W``  world size used for All-to-All exchange (total GPUs)
``M``  fflayer channel size for each sample (model dim)
``V``  fflayer hidden size for each sample
``dE`` number of local experts per GPU (may be fractional,
       e.g. 0.5 means one expert is sharded over two GPUs)
``E``  number of global experts
``dC`` per-GPU tokens within the local capacity limit
``C``  the gather of every ``dC`` (global capacity per expert)
``f``  the capacity factor used in Equation (1)
====== =====================================================

Equation (1) of the paper defines the expert capacity as::

    Expert Capacity = k * f * T / E

where ``T`` is the number of tokens per batch *per GPU* and ``k`` is the
top-k routing fan-out.  With weak scaling (fixed tokens per GPU) this
makes the per-source-GPU slice ``dC = k * f * T / E`` shrink as the
world grows, which is the root of the layout regression in Figure 7.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

__all__ = [
    "MoEConfig",
    "expert_capacity",
]


def expert_capacity(top_k: int, capacity_factor: float, tokens_per_gpu: int,
                    num_global_experts: int) -> int:
    """Expert capacity per source GPU following Equation (1).

    Parameters
    ----------
    top_k:
        Routing fan-out ``k`` (each token is sent to ``k`` experts).
    capacity_factor:
        The capacity factor ``f`` (``f >= 1`` keeps all tokens when the
        routing is perfectly even).
    tokens_per_gpu:
        Number of tokens ``T`` in the local batch of one GPU.
    num_global_experts:
        Number of global experts ``E``.

    Returns
    -------
    int
        ``ceil(k * f * T / E)``, at least 1.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if capacity_factor <= 0:
        raise ValueError(f"capacity_factor must be > 0, got {capacity_factor}")
    if tokens_per_gpu < 1:
        raise ValueError(f"tokens_per_gpu must be >= 1, got {tokens_per_gpu}")
    if num_global_experts < 1:
        raise ValueError(
            f"num_global_experts must be >= 1, got {num_global_experts}")
    cap = math.ceil(top_k * capacity_factor * tokens_per_gpu
                    / num_global_experts)
    return max(1, cap)


@dataclass(frozen=True)
class MoEConfig:
    """Static description of a single MoE layer and its placement.

    This object is shared between the functional NumPy implementation
    (:mod:`repro.moe`) and the performance substrate
    (:mod:`repro.runtime`); it intentionally contains no arrays.

    Attributes
    ----------
    world_size:
        ``W`` — number of GPUs participating in dispatch/combine.
    gpus_per_node:
        ``m`` — GPUs sharing the fast intra-node interconnect.
    experts_per_gpu:
        ``dE`` — local experts per GPU.  Values below one (e.g. ``0.5``)
        mean a single expert is sharded across ``1/dE`` GPUs, matching
        the ``count_per_node=-2`` style placement of Figure 17.
    model_dim:
        ``M`` — fflayer channel size.
    hidden_dim:
        ``V`` — fflayer hidden size.
    tokens_per_gpu:
        ``T`` — tokens in the local batch of a single GPU per step.
    top_k:
        ``k`` — routing fan-out.
    capacity_factor:
        ``f`` — see Equation (1).  This is the *static* value; dynamic
        adjustment semantics live in :mod:`repro.moe.capacity`.
    dtype_bytes:
        Bytes per element for activations exchanged in All-to-All
        (2 for fp16/bf16, 4 for fp32).
    """

    world_size: int = 1
    gpus_per_node: int = 8
    experts_per_gpu: float = 1.0
    model_dim: int = 1024
    hidden_dim: int = 4096
    tokens_per_gpu: int = 4096
    top_k: int = 2
    capacity_factor: float = 1.0
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")
        if self.gpus_per_node < 1:
            raise ValueError(
                f"gpus_per_node must be >= 1, got {self.gpus_per_node}")
        if self.experts_per_gpu <= 0:
            raise ValueError(
                f"experts_per_gpu must be > 0, got {self.experts_per_gpu}")
        if self.experts_per_gpu < 1:
            shards = 1.0 / self.experts_per_gpu
            if abs(shards - round(shards)) > 1e-9:
                raise ValueError(
                    "fractional experts_per_gpu must be 1/int "
                    f"(one expert over an integer GPU count), got "
                    f"{self.experts_per_gpu}")
            if self.world_size % round(shards) != 0:
                raise ValueError(
                    f"world_size {self.world_size} is not divisible by the "
                    f"expert shard count {round(shards)}")
        if self.model_dim < 1 or self.hidden_dim < 1:
            raise ValueError("model_dim and hidden_dim must be >= 1")
        if self.tokens_per_gpu < 1:
            raise ValueError(
                f"tokens_per_gpu must be >= 1, got {self.tokens_per_gpu}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.top_k > self.num_global_experts:
            raise ValueError(
                f"top_k ({self.top_k}) cannot exceed the number of global "
                f"experts ({self.num_global_experts})")
        if self.capacity_factor <= 0:
            raise ValueError(
                f"capacity_factor must be > 0, got {self.capacity_factor}")
        if self.dtype_bytes not in (1, 2, 4, 8):
            raise ValueError(f"unsupported dtype_bytes {self.dtype_bytes}")

    # ------------------------------------------------------------------
    # Derived quantities (Table 2)
    # ------------------------------------------------------------------

    @property
    def num_global_experts(self) -> int:
        """``E = max(1, W * dE)`` global experts."""
        return max(1, round(self.world_size * self.experts_per_gpu))

    @property
    def expert_shards(self) -> int:
        """How many GPUs one expert is sharded over (``n-sharded`` of P2).

        1 when each GPU holds at least one whole expert.
        """
        if self.experts_per_gpu >= 1:
            return 1
        return round(1.0 / self.experts_per_gpu)

    @property
    def capacity_per_gpu(self) -> int:
        """``dC`` — per-source-GPU capacity slice of one expert."""
        return expert_capacity(self.top_k, self.capacity_factor,
                               self.tokens_per_gpu, self.num_global_experts)

    @property
    def global_capacity(self) -> int:
        """``C = W * dC`` — total capacity of one expert."""
        return self.world_size * self.capacity_per_gpu

    @property
    def dispatch_bytes_per_gpu(self) -> int:
        """Bytes each GPU contributes to the dispatch All-to-All.

        The dispatch input layout is ``(E, dC, M)`` (Table 3).
        """
        return (self.num_global_experts * self.capacity_per_gpu
                * self.model_dim * self.dtype_bytes)

    @property
    def expert_parameter_count(self) -> int:
        """Parameters of one expert fflayer (two weight matrices)."""
        return 2 * self.model_dim * self.hidden_dim

    @property
    def expert_parameter_bytes(self) -> int:
        """Bytes of one expert's parameters at the activation dtype."""
        return self.expert_parameter_count * self.dtype_bytes

    @property
    def tokens_per_step(self) -> int:
        """Global tokens processed per step across all GPUs."""
        return self.tokens_per_gpu * self.world_size

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def with_(self, **overrides) -> "MoEConfig":
        """Return a copy with ``overrides`` applied."""
        return dataclasses.replace(self, **overrides)
