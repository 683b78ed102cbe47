"""Token classifiers used by the accuracy experiments.

Two matched architectures mirror the paper's dense-vs-sparse setup:
:class:`DenseClassifier` uses plain FFN blocks, and
:class:`MoEClassifier` replaces every other FFN with an MoE layer
(exactly the SwinV2-MoE substitution pattern, at toy scale).  Both
process tokens independently — the synthetic task routes per token, the
regime where expert specialization pays off.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.moe.capacity import CapacityPolicy
from repro.nn.moe import MoE
from repro.nn.modules import FFN, LayerNorm, Linear, Module
from repro.obs import get_run

__all__ = ["DenseClassifier", "MoEClassifier"]


class _Block(Module):
    """Pre-norm residual block around a token mixer (FFN or MoE)."""

    def __init__(self, dim: int, mixer: Module) -> None:
        self.norm = LayerNorm(dim)
        self.mixer = mixer

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor | None]:
        normed = self.norm(x)
        if isinstance(self.mixer, MoE):
            out, l_aux = self.mixer(normed)
            return x + out, l_aux
        return x + self.mixer(normed), None


class DenseClassifier(Module):
    """Encoder -> N dense FFN blocks -> linear head."""

    def __init__(self, input_dim: int, model_dim: int, hidden_dim: int,
                 num_classes: int, num_blocks: int,
                 rng: np.random.Generator) -> None:
        self.encoder = Linear(input_dim, model_dim, rng)
        self.blocks = [_Block(model_dim, FFN(model_dim, hidden_dim, rng))
                       for _ in range(num_blocks)]
        self.head = Linear(model_dim, num_classes, rng)

    def features(self, x: Tensor) -> Tensor:
        """Penultimate representation (input to the head)."""
        h = self.encoder(x)
        for block in self.blocks:
            h, _ = block(h)
        return h

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        return self.head(self.features(x)), Tensor(0.0)


class MoEClassifier(Module):
    """Same backbone with every other FFN replaced by an MoE layer."""

    def __init__(self, input_dim: int, model_dim: int, hidden_dim: int,
                 num_classes: int, num_blocks: int, num_experts: int,
                 rng: np.random.Generator, top_k: int = 1,
                 capacity_factor: float = 1.0, router: str = "linear",
                 batch_prioritized: bool = False) -> None:
        self.encoder = Linear(input_dim, model_dim, rng)
        self.blocks = []
        for i in range(num_blocks):
            if i % 2 == 1:
                mixer: Module = MoE(
                    model_dim, hidden_dim, num_experts, rng,
                    top_k=top_k, capacity_factor=capacity_factor,
                    router=router, batch_prioritized=batch_prioritized)
            else:
                mixer = FFN(model_dim, hidden_dim, rng)
            self.blocks.append(_Block(model_dim, mixer))
        self.head = Linear(model_dim, num_classes, rng)

    def moe_layers(self) -> list[MoE]:
        return [b.mixer for b in self.blocks if isinstance(b.mixer, MoE)]

    def fail_expert(self, layer: int, expert: int) -> None:
        """Mask expert ``expert`` of MoE layer ``layer`` out of gating
        (graceful degradation after an expert-serving rank dies)."""
        layers = self.moe_layers()
        if not 0 <= layer < len(layers):
            raise ValueError(
                f"layer {layer} out of range for {len(layers)} MoE layers")
        layers[layer].mask_expert(expert)
        # Emitted here, not by the layer: the layer does not know its
        # index, and the record should say which layer lost the expert.
        run = get_run()
        if run is not None:
            run.emit("fault", data={"kind": "expert_failure",
                                    "expert": expert, "layer": layer})

    def set_inference_capacity(self, capacity_factor: float) -> None:
        """Change the capacity factor of every MoE layer (Table 12's
        separate train-f / infer-f knobs)."""
        for layer in self.moe_layers():
            layer.capacity_policy = CapacityPolicy(capacity_factor)

    def freeze_moe(self) -> None:
        """Freeze all MoE layers (the Table 10 fine-tuning recipe)."""
        for layer in self.moe_layers():
            layer.freeze()

    def features(self, x: Tensor) -> Tensor:
        """Penultimate representation (aux losses are discarded)."""
        h, _ = self._trunk(x)
        return h

    def _trunk(self, x: Tensor) -> tuple[Tensor, Tensor]:
        h = self.encoder(x)
        total_aux: Tensor | None = None
        for block in self.blocks:
            h, l_aux = block(h)
            if l_aux is not None:
                total_aux = l_aux if total_aux is None else total_aux + l_aux
        if total_aux is None:
            total_aux = Tensor(0.0)
        else:
            total_aux = total_aux * (1.0 / max(len(self.moe_layers()), 1))
        return h, total_aux

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        h, total_aux = self._trunk(x)
        return self.head(h), total_aux
