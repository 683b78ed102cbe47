"""Trainable neural-network modules over the autograd engine."""

from __future__ import annotations

import numpy as np

from repro.autograd.functional import ffn, layer_norm, linear
from repro.autograd.tensor import Tensor

__all__ = ["Module", "Linear", "LayerNorm", "FFN"]


class Module:
    """Base class with recursive parameter discovery."""

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        seen: set[int] = set()
        for value in vars(self).values():
            for p in _collect(value):
                if id(p) not in seen:
                    seen.add(id(p))
                    params.append(p)
        return params

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        """``(path, tensor)`` pairs; like :meth:`parameters`, a tensor
        held twice is listed once, under its first path."""
        named: list[tuple[str, Tensor]] = []
        for key, value in vars(self).items():
            path = f"{prefix}{key}"
            if isinstance(value, Tensor) and value.requires_grad:
                named.append((path, value))
            elif isinstance(value, Module):
                named.extend(value.named_parameters(prefix=f"{path}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        named.extend(item.named_parameters(
                            prefix=f"{path}[{i}]."))
                    elif isinstance(item, Tensor) and item.requires_grad:
                        named.append((f"{path}[{i}]", item))
        seen: set[int] = set()
        unique = []
        for path, p in named:
            if id(p) not in seen:
                seen.add(id(p))
                unique.append((path, p))
        return unique

    def freeze(self) -> None:
        """Stop all parameters of this module from training."""
        for p in self.parameters():
            p.requires_grad = False

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError


def _collect(value) -> list[Tensor]:
    if isinstance(value, Tensor) and value.requires_grad:
        return [value]
    if isinstance(value, Module):
        return value.parameters()
    if isinstance(value, (list, tuple)):
        out: list[Tensor] = []
        for item in value:
            out.extend(_collect(item))
        return out
    return []


class Linear(Module):
    """Affine layer ``y = x @ W + b``."""

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator, bias: bool = True) -> None:
        scale = (2.0 / in_dim) ** 0.5
        self.weight = Tensor(rng.normal(0.0, scale, (in_dim, out_dim)),
                             requires_grad=True, name="linear.weight")
        self.bias = (Tensor(np.zeros(out_dim), requires_grad=True,
                            name="linear.bias") if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """LayerNorm over the last dimension."""

    def __init__(self, dim: int) -> None:
        self.weight = Tensor(np.ones(dim), requires_grad=True,
                             name="ln.weight")
        self.bias = Tensor(np.zeros(dim), requires_grad=True,
                           name="ln.bias")

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.weight, self.bias)


class FFN(Module):
    """The dense two-layer feed-forward block MoE replaces."""

    def __init__(self, model_dim: int, hidden_dim: int,
                 rng: np.random.Generator) -> None:
        self.fc1 = Linear(model_dim, hidden_dim, rng)
        self.fc2 = Linear(hidden_dim, model_dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return ffn(x, self.fc1.weight, self.fc1.bias, self.fc2.weight,
                   self.fc2.bias, "gelu")
