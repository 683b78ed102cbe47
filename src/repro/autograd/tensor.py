"""Minimal reverse-mode automatic differentiation over NumPy.

Just enough machinery to *train* MoE models for the accuracy
experiments (paper Section 5.3): tensors record the ops that produced
them; :meth:`Tensor.backward` runs the tape in reverse topological
order.  Broadcasting is supported by summing gradients over broadcast
axes.  The MoE-specific dispatch/combine ops live in
:mod:`repro.autograd.moe_ops` and reuse the verified sparse kernels of
:mod:`repro.moe.encode`.

Ops carry no instrumentation.  :meth:`Tensor.from_op` is the one place
a forward op meets the profiler: when :func:`repro.obs.get_profiler`
returns one it hands the output, the op's name and its parents to
:meth:`~repro.obs.profiler.Profiler.tape_op`, which prices the op from
the ``OP_COSTS`` table and times it; when it is not (the default), the
hook pays a single module-global ``is None`` check and
:mod:`repro.obs.profiler` is never imported.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.core import substrate as _substrate
from repro.obs import NULL_SPAN, get_profiler

__all__ = ["Tensor", "as_tensor", "stack_gradients"]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1
                 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with an attached gradient tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name", "_op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False,
                 name: str = "", dtype: np.dtype | None = None) -> None:
        # Leaf tensors are coerced to the substrate dtype (float32 by
        # default; see repro.core.substrate).  Pass ``dtype`` to pin a
        # specific precision regardless of the process default.
        if dtype is None:
            dtype = _substrate.default_dtype()
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name
        # Profiler metadata: (op name, MoE stage, backward OpCost),
        # set by Profiler.tape_op; None when unprofiled.
        self._op: tuple | None = None

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_op(data: np.ndarray, parents: Iterable["Tensor"],
                backward: Callable[[np.ndarray], None], op: str,
                ctx=None) -> "Tensor":
        """Wrap an op's output as a tape node.  ``op`` names the op in
        the profiler's cost table; ``ctx`` is whatever its cost formula
        needs beyond array shapes (routing criteria, activation)."""
        parents = tuple(parents)
        # Op outputs keep the dtype NumPy produced from the inputs —
        # re-coercing to the process default here would silently down-
        # cast float64 gradcheck graphs (or upcast float32 ones).
        out = Tensor(data, requires_grad=any(p.requires_grad
                                             for p in parents),
                     dtype=np.asarray(data).dtype)
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        p = get_profiler()
        if p is not None:
            p.tape_op(out, op, parents, ctx)
        return out

    @staticmethod
    def needs_tape(*operands: "Tensor") -> bool:
        """Whether an op on ``operands`` must tape (gradient or profiler)."""
        for t in operands:
            if t.requires_grad:
                return True
        return get_profiler() is not None

    # -- properties ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, grad={self.requires_grad}{tag})"

    # -- autograd --------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype),
                            self.data.shape)
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (defaults to scalar seed 1).

        The tape is released as the walk passes it: once a non-leaf
        node's closure has run, its ``grad``, closure and parent links
        are dropped (the root keeps its ``grad``), so saved activations
        and intermediate gradients die as soon as nothing needs them
        instead of living until the root does.  Leaves keep their
        accumulated ``grad``.  A second ``backward()`` over the same
        graph therefore propagates nothing: the root is a leaf by then
        and only accumulates the seed into its own ``grad``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without a gradient seed requires a "
                    f"scalar tensor, got shape {self.shape}")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            current, processed = stack.pop()
            if processed:
                topo.append(current)
                continue
            if id(current) in seen:
                continue
            seen.add(id(current))
            stack.append((current, True))
            for parent in current._parents:
                if parent.requires_grad:
                    stack.append((parent, False))
        p = get_profiler()
        with p.backward_pass() if p is not None else NULL_SPAN:
            self._accumulate(grad)
            # Popping (not iterating) so the list's own reference to a
            # node goes with it.
            while topo:
                node = topo.pop()
                if node._backward is None:
                    continue
                if node.grad is not None:
                    if p is None:
                        node._backward(node.grad)
                    else:
                        p.run_backward(node)
                    if node is not self:
                        node.zero_grad()
                node._backward = None
                node._parents = ()

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)
        return Tensor.from_op(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)
        return Tensor.from_op(out_data, (self,), backward, "neg")

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)
        return Tensor.from_op(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data
                                  / (other.data * other.data))
        return Tensor.from_op(out_data, (self, other), backward, "div")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        # ``**`` hits the generic pow kernel even for small integer or
        # half exponents; the common cases deserve the cheap kernels.
        if exponent == 2:
            out_data = self.data * self.data
        elif exponent == 0.5:
            out_data = np.sqrt(self.data)
        else:
            out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if exponent == 2:
                self._accumulate(grad * 2.0 * self.data)
            elif exponent == 0.5:
                self._accumulate(grad * 0.5 / out_data)
            else:
                self._accumulate(
                    grad * exponent * self.data ** (exponent - 1))
        return Tensor.from_op(out_data, (self,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            # A parent that takes no gradient (the model input, a
            # frozen weight) costs no GEMM.
            if self.requires_grad:
                self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ grad)
        return Tensor.from_op(out_data, (self, other), backward, "matmul")

    # -- shape ops -----------------------------------------------------------

    def transpose(self, *axes: int) -> "Tensor":
        axes = axes or tuple(reversed(range(self.ndim)))
        inverse = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))
        return Tensor.from_op(out_data, (self,), backward, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    # -- reductions ---------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(ax % len(shape) for ax in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, shape))
        return Tensor.from_op(out_data, (self,), backward, "sum")


def as_tensor(value) -> Tensor:
    """Wrap a raw value as a constant tensor (no-op for tensors)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def stack_gradients(tensors: Iterable[Tensor]) -> float:
    """Global L2 norm of gradients (for clipping / diagnostics)."""
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            g = np.ascontiguousarray(t.grad)
            total += float(np.vdot(g, g))
    return float(np.sqrt(total))
