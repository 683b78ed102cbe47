"""Taped reference ops the fused kernels are checked against."""

from repro.autograd.tensor import Tensor
from repro.moe.ffn import act_backward, act_forward


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GELU as its own tape node: the elementwise step
    of the composition ``act(x @ w1 + b1) @ w2 + b2`` that the fused
    FFN ops replace bit for bit."""
    out_data, t = act_forward(x.data, "gelu")

    def backward(grad):
        x._accumulate(act_backward(grad, x.data, t, "gelu"))
    return Tensor.from_op(out_data, (x,), backward, "gelu")
