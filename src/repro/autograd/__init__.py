"""Minimal reverse-mode autograd used by the training experiments."""

from repro.autograd.functional import (
    concat,
    cross_entropy,
    exp,
    gather_rows,
    gelu,
    layer_norm,
    log,
    log_softmax,
    relu,
    softmax,
    take_along,
    tanh,
)
from repro.autograd.moe_ops import (
    expert_ffn,
    moe_combine,
    moe_dispatch,
)
from repro.autograd.optim import SGD, Adam, clip_grad_norm
from repro.autograd.tensor import Tensor, as_tensor, stack_gradients
from repro.core.substrate import (
    default_dtype,
    set_default_dtype,
    substrate_dtype,
)

__all__ = [
    "concat",
    "cross_entropy",
    "exp",
    "gather_rows",
    "gelu",
    "layer_norm",
    "log",
    "log_softmax",
    "relu",
    "softmax",
    "take_along",
    "tanh",
    "expert_ffn",
    "moe_combine",
    "moe_dispatch",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "Tensor",
    "as_tensor",
    "stack_gradients",
    "default_dtype",
    "set_default_dtype",
    "substrate_dtype",
]
