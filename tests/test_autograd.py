"""Numerical gradient checks for the autograd engine."""

import weakref

import numpy as np
import pytest

from repro.autograd.functional import (
    cross_entropy,
    exp,
    ffn,
    layer_norm,
    linear,
    softmax,
)
from repro.autograd import optim
from repro.autograd.optim import BETAS, EPS, WEIGHT_DECAY, Adam, clip_grad_norm
from repro.autograd.tensor import Tensor
from repro.moe.ffn import BLOCK
from tests.reference_ops import gelu, mean, relu, saving_ffn, take_along


@pytest.fixture(autouse=True)
def _float64_substrate():
    """Numeric gradient checks stay in float64: central differences at
    float32 lose half the mantissa to roundoff (see ISSUE 6 / DESIGN
    dtype conventions)."""
    from repro.core.substrate import substrate_dtype
    with substrate_dtype(np.float64):
        yield


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of ``x``."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = (fn(xp) - fn(xm)) / (2 * eps)
    return grad


def check_grad(build, x: np.ndarray, atol=1e-5):
    """Compare autograd and numeric gradients of ``sum(build(t))``."""
    t = Tensor(x, requires_grad=True)
    out = build(t)
    out.sum().backward()
    numeric = numeric_grad(lambda v: float(build(Tensor(v)).data.sum()), x)
    np.testing.assert_allclose(t.grad, numeric, atol=atol)


RNG = np.random.default_rng(0)


class TestArithmetic:
    def test_add(self):
        other = Tensor(RNG.normal(size=(3, 4)))
        check_grad(lambda t: t + other, RNG.normal(size=(3, 4)))

    def test_add_broadcast(self):
        bias = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        (x + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 3.0))

    def test_mul(self):
        other = RNG.normal(size=(3, 4))
        check_grad(lambda t: t * Tensor(other), RNG.normal(size=(3, 4)))

    def test_div(self):
        denom = RNG.normal(size=(3, 4)) + 3.0
        check_grad(lambda t: t / Tensor(denom), RNG.normal(size=(3, 4)))

    def test_pow(self):
        check_grad(lambda t: t ** 3.0, RNG.normal(size=(4,)) + 2.0)

    # Tensors have no ``-`` operator: a difference is the sum with a
    # negation.
    def test_neg_sub(self):
        check_grad(lambda t: (-t) + -Tensor(np.ones((2, 2))),
                   RNG.normal(size=(2, 2)))

    def test_rsub_rmul(self):
        check_grad(lambda t: 2.0 + -(3.0 * t), RNG.normal(size=(3,)))

    def test_matmul_grad_both_sides(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        na = numeric_grad(lambda v: float((v @ b.data).sum()), a.data)
        nb = numeric_grad(lambda v: float((a.data @ v).sum()), b.data)
        np.testing.assert_allclose(a.grad, na, atol=1e-5)
        np.testing.assert_allclose(b.grad, nb, atol=1e-5)

    def test_batched_matmul(self):
        a = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)


class TestShapes:
    def test_transpose(self):
        w = RNG.normal(size=(3, 2))
        check_grad(lambda t: t.T * Tensor(w), RNG.normal(size=(2, 3)))

    def test_sum_axis_keepdims(self):
        w = Tensor(RNG.normal(size=(3, 1)))
        check_grad(lambda t: t.sum(axis=1, keepdims=True) * w,
                   RNG.normal(size=(3, 4)))

    def test_mean(self):
        check_grad(lambda t: mean(t, axis=0), RNG.normal(size=(5, 2)))


class TestNonlinearities:
    def test_relu(self):
        check_grad(relu, RNG.normal(size=(4, 4)) + 0.05)

    def test_gelu(self):
        check_grad(gelu, RNG.normal(size=(4, 4)))

    def test_exp(self):
        check_grad(exp, RNG.normal(size=(3,)))

    def test_softmax(self):
        w = RNG.normal(size=(3, 5))
        check_grad(lambda t: softmax(t) * Tensor(w),
                   RNG.normal(size=(3, 5)))

    def test_layer_norm(self):
        weight = Tensor(RNG.normal(size=(6,)) + 1.0, requires_grad=True)
        bias = Tensor(RNG.normal(size=(6,)), requires_grad=True)
        x = RNG.normal(size=(4, 6))
        check_grad(lambda t: layer_norm(t, weight, bias), x, atol=1e-4)

    def test_layer_norm_param_grads(self):
        weight = Tensor(np.ones(4), requires_grad=True)
        bias = Tensor(np.zeros(4), requires_grad=True)
        x = Tensor(RNG.normal(size=(8, 4)), requires_grad=True)
        layer_norm(x, weight, bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 8.0))
        assert weight.grad is not None


def run_op(build, shapes, dtype, x_grad, w_grad):
    """Output and every leaf gradient of ``build(x, *params)`` as bytes
    (``None`` where no gradient is taken), after backpropagating one
    fixed random upstream gradient.  ``dtype`` is one dtype or one per
    leaf."""
    rng = np.random.default_rng(0)
    dtypes = dtype if isinstance(dtype, list) else [dtype] * len(shapes)
    leaves = [Tensor(rng.normal(size=shape) + (1.0 if i > 0 else 0.0),
                     requires_grad=x_grad if i == 0 else w_grad,
                     dtype=dtypes[i])
              for i, shape in enumerate(shapes)]
    out = build(*leaves)
    if out.requires_grad:
        out.backward(rng.normal(size=out.shape).astype(out.data.dtype))
    return [out.data.dtype.str, out.data.tobytes()] + [
        None if t.grad is None else t.grad.tobytes() for t in leaves]


def reference_layer_norm(x, weight, bias, grad, eps=1e-5):
    """The ``np.mean`` / ``np.var`` form :func:`layer_norm` replaced:
    ``(out, grad_x, grad_weight, grad_bias)`` on arrays."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    lead = tuple(range(grad.ndim - 1))
    gx = grad * weight
    dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
    return (xhat * weight + bias, dx, (grad * xhat).sum(axis=lead),
            grad.sum(axis=lead))


#: (x takes a gradient, the weights train): a trainable layer, the
#: model input, frozen weights, and nothing taped at all.
GRAD_CASES = [(True, True), (False, True), (True, False), (False, False)]


class TestDenseOps:
    """The fused dense ops are byte-equal to the compositions they
    replace, output and every gradient, at both dtypes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_grad,w_grad", GRAD_CASES)
    @pytest.mark.parametrize("shapes", [
        [(6, 5), (5, 4), (4,)], [(6, 5), (5, 4)], [(2, 3, 5), (5, 4), (4,)]])
    def test_linear_bitwise_equal_composition(self, shapes, x_grad,
                                              w_grad, dtype):
        def composed(x, w, b=None):
            return x @ w if b is None else x @ w + b
        fused = run_op(linear, shapes, dtype, x_grad, w_grad)
        assert fused == run_op(composed, shapes, dtype, x_grad, w_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_grad,w_grad", GRAD_CASES)
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    @pytest.mark.parametrize("rows", [(6,), (2, 3)])
    def test_ffn_bitwise_equal_composition(self, rows, activation, x_grad,
                                           w_grad, dtype):
        shapes = [(*rows, 5), (5, 7), (7,), (7, 5), (5,)]
        act = gelu if activation == "gelu" else relu

        def composed(x, w1, b1, w2, b2):
            return act(x @ w1 + b1) @ w2 + b2

        def fused(x, w1, b1, w2, b2):
            return ffn(x, w1, b1, w2, b2, activation)
        assert run_op(fused, shapes, dtype, x_grad, w_grad) \
            == run_op(composed, shapes, dtype, x_grad, w_grad)

    @pytest.mark.parametrize("dtype", [
        np.float32, np.float64,
        # h and the tanh cache in float32, the upstream gradient and
        # the gradient w.r.t. the activation in float64: fresh arrays.
        [np.float32, np.float32, np.float32, np.float64, np.float64]])
    @pytest.mark.parametrize("x_grad,w_grad", GRAD_CASES)
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    @pytest.mark.parametrize("rows", [(6,), (2, 3)])
    def test_ffn_bitwise_equal_saving_form(self, rows, activation, x_grad,
                                           w_grad, dtype):
        # The op rebuilds the activation and writes over its saved
        # arrays; the form that kept (h, a, t) gives the same bytes.
        shapes = [(*rows, 5), (5, 7), (7,), (7, 5), (5,)]

        def fused(*leaves):
            return ffn(*leaves, activation)

        def saving(*leaves):
            return saving_ffn(*leaves, activation)
        assert run_op(fused, shapes, dtype, x_grad, w_grad) \
            == run_op(saving, shapes, dtype, x_grad, w_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_grad,w_grad", GRAD_CASES)
    @pytest.mark.parametrize("shape", [(7, 6), (2, 5, 33)])
    def test_layer_norm_bitwise_equal_mean_var_form(self, shape, x_grad,
                                                    w_grad, dtype):
        shapes = [shape, shape[-1:], shape[-1:]]
        got = run_op(layer_norm, shapes, dtype, x_grad, w_grad)
        rng = np.random.default_rng(0)
        x, weight, bias = (rng.normal(size=s) + (1.0 if i > 0 else 0.0)
                           for i, s in enumerate(shapes))
        grad = rng.normal(size=shape)
        out, *grads = reference_layer_norm(
            *(a.astype(dtype) for a in (x, weight, bias, grad)))
        takes = [x_grad, w_grad, w_grad]
        assert got == [out.dtype.str, out.tobytes()] + [
            g.tobytes() if t else None for g, t in zip(grads, takes)]

    def test_linear_grad(self):
        w = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        x = Tensor(RNG.normal(size=(4, 5)))
        check_grad(lambda t: linear(t, w, b), x.data)
        check_grad(lambda t: linear(t, w), x.data)
        check_grad(lambda t: linear(x, t, b), w.data)
        check_grad(lambda t: linear(x, w, t), b.data)

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_ffn_grad(self, activation):
        params = [Tensor(RNG.normal(size=s), requires_grad=True)
                  for s in [(4, 5), (5, 6), (6,), (6, 4), (4,)]]
        for i, leaf in enumerate(params):
            def build(t, i=i):
                args = [t if j == i else p for j, p in enumerate(params)]
                return ffn(*args, activation)
            check_grad(build, leaf.data)


class TestGathers:
    def test_gather_rows(self):
        # Rows gathered along axis 0, one repeated: its gradient sums.
        idx = np.broadcast_to(np.array([0, 2, 2, 1])[:, None], (4, 3))
        w = RNG.normal(size=(4, 3))
        check_grad(lambda t: take_along(t, idx, axis=0) * Tensor(w),
                   RNG.normal(size=(3, 3)))

    def test_take_along(self):
        idx = RNG.integers(0, 5, size=(4, 2))
        w = RNG.normal(size=(4, 2))
        check_grad(lambda t: take_along(t, idx, axis=1) * Tensor(w),
                   RNG.normal(size=(4, 5)))

    def test_take_along_duplicate_indices_accumulate(self):
        x = Tensor(RNG.normal(size=(1, 3)), requires_grad=True)
        idx = np.array([[1, 1]])
        take_along(x, idx, axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 2.0, 0.0]])


class TestCrossEntropy:
    def test_matches_manual(self):
        logits = RNG.normal(size=(6, 4))
        labels = RNG.integers(0, 4, 6)
        t = Tensor(logits, requires_grad=True)
        loss = cross_entropy(t, labels)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1,
                                                    keepdims=True))
        expected = -logp[np.arange(6), labels].mean()
        assert float(loss.data) == pytest.approx(expected)

    def test_gradient(self):
        logits = RNG.normal(size=(5, 3))
        labels = RNG.integers(0, 3, 5)
        t = Tensor(logits, requires_grad=True)
        cross_entropy(t, labels).backward()
        numeric = numeric_grad(
            lambda v: float(cross_entropy(Tensor(v), labels).data),
            logits)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(3, dtype=int))


class TestBackwardMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t + t).sum().backward()
        np.testing.assert_allclose(t.grad, np.full(3, 2.0))

    def test_no_grad_for_constants(self):
        t = Tensor(np.ones(3))
        out = (t * 2).sum()
        out.backward()
        assert t.grad is None

    def test_deep_graph_no_recursion_error(self):
        t = Tensor(np.ones(2), requires_grad=True)
        out = t
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones(2))


def small_graph(seed=0):
    """(loss, leaves) of a graph with a reused node, a constant parent
    and a fused nonlinearity — enough to exercise every release path."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(6, 4)))
    w1 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)
    h = gelu(x @ w1)
    out = (h @ w2 + b) * (h @ w2)
    return (softmax(out) * out).sum() * 0.5, (w1, w2, b)


def non_leaves(root):
    """Every tape node reachable from ``root`` (collected before the
    walk: ``backward`` drops the links this follows)."""
    found, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            found.append(node)
        stack.extend(node._parents)
    return found


def retained_backward(root):
    """The reverse walk before the tape was released as it went: the
    same closures in the same order, nothing dropped.  The oracle for
    the leaf gradients."""
    topo, seen = [], set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for parent in node._parents:
            if parent.requires_grad:
                visit(parent)
        topo.append(node)

    visit(root)
    root._accumulate(np.ones_like(root.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestTapeRelease:
    def test_non_leaves_released_root_keeps_grad(self):
        loss, leaves = small_graph()
        nodes = non_leaves(loss)
        assert len(nodes) > 5
        loss.backward()
        for node in nodes:
            assert node._backward is None
            assert node._parents == ()
            if node is not loss:
                assert node.grad is None
        np.testing.assert_array_equal(loss.grad, np.ones_like(loss.data))
        assert all(leaf.grad is not None for leaf in leaves)

    def test_leaf_gradients_bitwise_equal_retained_walk(self):
        released, leaves = small_graph()
        released.backward()
        retained, expected = small_graph()
        retained_backward(retained)
        for got, want in zip(leaves, expected):
            np.testing.assert_array_equal(got.grad, want.grad)

    def test_activation_dies_during_backward(self):
        w = Tensor(RNG.normal(size=(4, 4)), requires_grad=True)
        h = gelu(Tensor(RNG.normal(size=(3, 4))) @ w)
        loss = (h * h).sum()
        activation = weakref.ref(h)
        saved = weakref.ref(h.data)
        del h
        loss.backward()
        # The loss is still alive: the walk itself let go of the node
        # and of the array its closures had saved.
        assert activation() is None and saved() is None
        assert w.grad is not None

    def test_second_backward_propagates_nothing(self):
        """Documented: after ``backward()`` the root is a leaf, so a
        second call only accumulates the seed into the root's own
        ``grad``; no leaf gradient moves."""
        loss, leaves = small_graph()
        loss.backward()
        before = [leaf.grad.copy() for leaf in leaves]
        loss.backward()
        for leaf, grad in zip(leaves, before):
            np.testing.assert_array_equal(leaf.grad, grad)
        np.testing.assert_array_equal(loss.grad, 2.0)

    @pytest.mark.parametrize("op", [
        lambda a, b: a @ b, lambda a, b: a * b, lambda a, b: a / b])
    def test_constant_parent_gradient_not_computed(self, op, monkeypatch):
        """A parent that takes no gradient costs no work: the closures
        check ``requires_grad`` before the GEMM / product, not after."""
        a = Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3, 3)) + 5.0)
        accumulated = []
        real = Tensor._accumulate
        monkeypatch.setattr(
            Tensor, "_accumulate",
            lambda self, grad: (accumulated.append(self), real(self, grad)))
        op(a, b).sum().backward()
        assert all(t is not b for t in accumulated)
        assert a.grad is not None and b.grad is None


def reference_adam_step(datas, grads, ms, vs, step, lr, betas, eps,
                        weight_decay):
    """The per-parameter Adam update the fused step replaced, kept here
    as its oracle (whole-array expressions, one temporary each)."""
    b1, b2 = betas
    bias1 = 1.0 - b1 ** step
    bias2 = 1.0 - b2 ** step
    for data, grad, m, v in zip(datas, grads, ms, vs):
        if grad is None:
            continue
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        v += (1 - b2) * grad ** 2
        update = (m / bias1) / (np.sqrt(v / bias2) + eps)
        if weight_decay:
            update = update + weight_decay * data
        data -= lr * update


class TestFusedAdam:
    # From one element to 16 blocks; 2 * BLOCK + 4464 ends on a ragged
    # block, and the offsets put parameter edges inside blocks.
    SHAPES = [(4,), (), (3, 5), (2 * BLOCK + 4464,), (7, 1), (8, 128, 512),
              (33,)]

    @staticmethod
    def gradient(rng, shape, dtype, step, i):
        if i == 2 and step == 1:
            return None                     # skipped whole
        if i == 4:                          # broadcast-shaped, stride 0
            return np.broadcast_to(dtype(0.25 * (step + 1)), shape)
        if i == 6:                          # non-contiguous
            return rng.normal(size=(shape[0], 2)).astype(dtype)[:, 0]
        return rng.normal(size=shape).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_bitwise_equal_to_reference(self, dtype, weight_decay,
                                        monkeypatch):
        # The fused arithmetic is the oracle's at any decay constant,
        # zero (the oracle then skips the term) included.
        monkeypatch.setattr(optim, "WEIGHT_DECAY", weight_decay)
        rng = np.random.default_rng(7)
        params = [Tensor(rng.normal(size=shape), requires_grad=True,
                         dtype=dtype) for shape in self.SHAPES]
        opt = Adam(params, lr=3e-3)
        hyper = dict(lr=3e-3, betas=BETAS, eps=EPS,
                     weight_decay=weight_decay)
        datas = [p.data.copy() for p in params]
        ms = [np.zeros_like(d) for d in datas]
        vs = [np.zeros_like(d) for d in datas]
        for step in range(3):
            grads = [self.gradient(rng, p.shape, dtype, step, i)
                     for i, p in enumerate(params)]
            for p, grad in zip(params, grads):
                p.grad = grad
            untouched = (params[2].data.copy(), opt._m[2].copy(),
                         opt._v[2].copy())
            opt.step()
            reference_adam_step(datas, grads, ms, vs, step + 1, **hyper)
            store, = opt.stores.values()
            assert all(np.shares_memory(p.data, store) for p in params)
            for p, m, v, data, rm, rv in zip(params, opt._m, opt._v,
                                             datas, ms, vs):
                assert p.data.dtype == m.dtype == v.dtype == dtype
                np.testing.assert_array_equal(p.data, data)
                np.testing.assert_array_equal(m, rm)
                np.testing.assert_array_equal(v, rv)
            if grads[2] is None:
                for got, want in zip((params[2].data, opt._m[2],
                                      opt._v[2]), untouched):
                    np.testing.assert_array_equal(got, want)
        assert opt._step == 3

    def test_moments_are_views_of_one_buffer(self):
        params = [Tensor(np.ones(shape), requires_grad=True)
                  for shape in [(3, 2), (5,)]]
        opt = Adam(params)
        for views, flat in zip((opt._m, opt._v), opt._flat):
            assert [v.shape for v in views] == [(3, 2), (5,)]
            assert all(np.shares_memory(v, flat) for v in views)

    def test_parameters_are_views_of_one_store(self):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=s) for s in [(3, 2), (), (5,)]]
        params = [Tensor(a, requires_grad=True) for a in arrays]
        opt = Adam(params)
        store, = opt.stores.values()
        assert store.size == 12 and store.dtype == params[0].data.dtype
        for p, a in zip(params, arrays):
            assert np.shares_memory(p.data, store)
            assert p.data.shape == a.shape
            np.testing.assert_array_equal(p.data, a.astype(store.dtype))

    def test_one_store_per_dtype(self):
        params = [Tensor(np.ones(3), requires_grad=True, dtype=np.float32),
                  Tensor(np.ones(2), requires_grad=True, dtype=np.float64),
                  Tensor(np.ones(4), requires_grad=True, dtype=np.float32)]
        opt = Adam(params)
        assert list(opt.stores) == [np.float32, np.float64]
        assert [s.size for s in opt.stores.values()] == [9, 9]
        assert [p.data.dtype for p in params] == [
            np.float32, np.float64, np.float32]
        for p in params:
            p.grad = np.ones(p.shape)
        opt.step()
        for p in params:
            assert np.shares_memory(p.data, opt.stores[p.data.dtype])
            np.testing.assert_allclose(p.data, 1.0 - 1e-3, rtol=1e-6)

    def test_blocks_straddle_parameter_boundaries(self):
        # Three small parameters share the first block; the large one
        # is cut from its own start, and its tail shares the last block
        # with the parameter after it.
        shapes = [(5,), (3, 4), (7,), (2 * BLOCK + 10,), (9,)]
        params = [Tensor(np.zeros(s), requires_grad=True) for s in shapes]
        opt = Adam(params)
        plan = opt._plan(())
        owners = [[i for _, i, _ in pieces] for *_, pieces in plan]
        assert owners == [[0, 1, 2], [3], [3], [3, 4]]
        assert [m.size for m, *_ in plan] == [24, BLOCK, BLOCK, 10 + 9]
        store, = opt.stores.values()
        for m, v, g, t, u, data, pieces in plan:
            assert np.shares_memory(data, store)
            assert data.size == m.size == g.size
        # A gradient-less parameter splits the block around it.
        owners = [[i for _, i, _ in pieces]
                  for *_, pieces in opt._plan((1,))]
        assert owners == [[0], [2], [3], [3], [3, 4]]

    def test_gradless_parameter_mid_buffer_keeps_data_and_moments(self):
        rng = np.random.default_rng(2)
        params = [Tensor(rng.normal(size=s), requires_grad=True)
                  for s in [(4,), (BLOCK + 3,), (6,)]]
        opt = Adam(params, lr=0.1)
        for p in params:
            p.grad = np.ones(p.shape)
        opt.step()
        before = [(p.data.copy(), m.copy(), v.copy())
                  for p, m, v in zip(params, opt._m, opt._v)]
        params[1].grad = None
        opt.step()
        for i, (p, m, v) in enumerate(zip(params, opt._m, opt._v)):
            moved = [not np.array_equal(a, b)
                     for a, b in zip((p.data, m, v), before[i])]
            assert moved == ([False] * 3 if i == 1 else [True] * 3)

    def test_replaced_parameter_array_is_updated(self):
        # Whatever ``p.data`` is at step time (here a fresh, strided
        # float64 array over a float32 store) is adopted: the store is
        # re-seated in its dtype and the update lands there.
        p = Tensor(np.ones((4, 3)), requires_grad=True, dtype=np.float32)
        q = Tensor(np.ones(2), requires_grad=True, dtype=np.float32)
        opt = Adam([p, q], lr=0.1)
        p.data = np.full((3, 4), 2.0).T
        p.grad, q.grad = np.ones((4, 3)), np.ones(2)
        opt.step()
        assert p.data.shape == (4, 3)
        np.testing.assert_allclose(p.data, 2.0 - 0.1 * (1 + 2 * WEIGHT_DECAY))
        assert p.data.dtype == np.float64 and q.data.dtype == np.float32
        assert list(opt.stores) == [np.float64, np.float32]
        assert np.shares_memory(p.data, opt.stores[np.dtype(np.float64)])
        # Same dtype: copied into the store, which stays one buffer.
        q.data = np.zeros(2, dtype=np.float32)
        opt.step()
        assert np.shares_memory(q.data, opt.stores[np.dtype(np.float32)])
        assert len(opt.stores) == 2

    def test_replaced_parameter_of_another_size_is_rejected(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = Adam([p])
        p.data, p.grad = np.ones(4), np.ones(4)
        with pytest.raises(ValueError, match="changed size"):
            opt.step()

    def test_rollback_restores_through_the_store(self):
        params = [Tensor(np.full(s, 1.0), requires_grad=True)
                  for s in [(3,), (2, 2)]]
        opt = Adam(params)
        opt.snapshot()
        store, = opt.stores.values()
        good = store.copy()
        params[0].data[1] = np.nan                  # in place
        params[1].data = np.full((2, 2), np.nan)    # replaced
        params[0].grad = np.ones(3)
        opt.rollback()
        assert opt.stores[store.dtype] is store
        np.testing.assert_array_equal(store, good)
        for p in params:
            assert np.shares_memory(p.data, store) and p.grad is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, 3, 2 * BLOCK + 1, 3 * BLOCK + 5])
    def test_guard_record_matches_an_entry_by_entry_compare(self, dtype,
                                                            size):
        # The record is the (index, old bits) of every changed entry,
        # whether the compare runs over words or entries: writes in the
        # first and a middle block, the last whole word and the odd
        # tail, a sign flip of a zero and a NaN payload change.
        p = Tensor(np.zeros(size, dtype=dtype), requires_grad=True,
                   dtype=dtype)
        p.data[::2] = np.nan
        opt = Adam([p])
        store, = opt.stores.values()
        bits = store.view(f"u{store.itemsize}")
        for picks in ([], [0], [size - 1],
                      sorted({0, size // 2, max(0, size - 2), size - 1})):
            opt.snapshot()
            old = bits.copy()
            for i in picks:
                store[i] = -store[i] if i % 2 else -np.nan
            opt.shrink_snapshot()
            (_, idx, kept), = opt._undo
            want = np.flatnonzero(bits != old)
            np.testing.assert_array_equal(idx, want)
            assert kept.tobytes() == old[want].tobytes()
            opt.rollback()
            assert bits.tobytes() == old.tobytes()

    def test_load_moments_reseats_in_saved_dtype(self):
        p = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
        opt = Adam([p])
        m = [np.full((2, 3), 0.5, dtype=np.float32)]
        v = [np.full((2, 3), 0.25, dtype=np.float32)]
        opt.load_moments(m, v, step=4)
        assert opt._step == 4
        assert opt._m[0].dtype == opt._v[0].dtype == np.float32
        np.testing.assert_array_equal(opt._m[0], m[0])
        np.testing.assert_array_equal(opt._v[0], v[0])
        assert np.shares_memory(opt._m[0], opt._flat[0])
        with pytest.raises(ValueError, match="slot count"):
            opt.load_moments(m + m, v + v, step=0)
        with pytest.raises(ValueError, match="shape"):
            opt.load_moments([m[0].T], [v[0].T], step=0)


class TestOptimizers:
    def test_adam_descends(self):
        w = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        opt = Adam([w], lr=0.05)
        for _ in range(200):
            loss = (w * w).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.abs(w.data).max() < 0.05

    def test_weight_decay_shrinks(self):
        # A zero gradient leaves only the decoupled decay: one step
        # scales the weight by exactly 1 - lr * WEIGHT_DECAY.
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([w], lr=0.1)
        loss = (w * 0.0).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert float(w.data[0]) == 1.0 - 0.1 * WEIGHT_DECAY

    def test_clip_grad_norm(self):
        w = Tensor(np.ones(4), requires_grad=True)
        w.grad = np.full(4, 10.0)
        norm = clip_grad_norm([w], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_grad_norm_strided_and_missing_gradients(self):
        rng = np.random.default_rng(3)
        ws = [Tensor(np.ones(s), requires_grad=True)
              for s in [(5, 7), (3,), (2, 2)]]
        ws[0].grad = rng.normal(size=(7, 5)).T      # strided
        ws[1].grad = rng.normal(size=3)
        expected = float(np.sqrt(sum(np.sum(w.grad ** 2)
                                     for w in ws[:2])))
        assert clip_grad_norm(ws, max_norm=1e9) == pytest.approx(expected)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_clip_grad_norm_nonfinite_norm_scales_nothing(self, bad):
        w = Tensor(np.ones(4), requires_grad=True)
        w.grad = np.array([1.0, bad, 3.0, 4.0])
        before = w.grad.copy()
        with np.errstate(all="raise"):
            norm = clip_grad_norm([w], max_norm=1.0)
        assert not np.isfinite(norm)
        np.testing.assert_array_equal(w.grad, before)

    def test_rejects_bad_lr(self):
        for lr in (0, -1):
            with pytest.raises(ValueError):
                Adam([Tensor(np.ones(1), requires_grad=True)], lr=lr)
