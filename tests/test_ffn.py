"""Tests for the expert-FFN array kernels of :mod:`repro.moe.ffn`.

The blocked activations equal the whole-array expressions they replaced
bitwise, the ragged kernels equal the padded oracle below to rounding,
recompute (``saved=None``) equals the saved-activations backward and
both equal the kernels that kept ``(h, a, cache)``, the frozen forward
(``save=False``) gives the taped one's bytes while keeping no
activations, and a taped forward and backward hold no more than the
saved activation and derivative and the outputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd.tensor import Tensor
from repro.core.substrate import substrate_dtype
from repro.moe import ffn
from repro.moe.ffn import (
    BLOCK,
    act_backward,
    act_forward,
    ffn_backward_arrays,
    ffn_forward_arrays,
)
from repro.obs.profiler import traced_peak
from tests.reference_ops import (
    saving_expert_kernels,
    unblocked_act_forward,
    unblocked_act_grad,
)


def ffn_case(e=4, c=6, m=5, v=7, dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(e, c, m)).astype(dtype)
    w1 = rng.normal(size=(e, m, v)).astype(dtype)
    w2 = rng.normal(size=(e, v, m)).astype(dtype)
    gy = rng.normal(size=(e, c, m)).astype(dtype)
    return x, w1, w2, gy


def padded_forward(x, w1, w2, activation):
    """The batched all-``cap``-rows body the ragged kernels replaced,
    kept here as their oracle."""
    h = np.matmul(x, w1)
    a, cache = unblocked_act_forward(h, activation)
    return np.matmul(a, w2), (h, a, cache)


def padded_backward(x, w1, w2, grad_y, activation):
    h, a, cache = padded_forward(x, w1, w2, activation)[1]
    grad_w2 = np.matmul(a.swapaxes(-1, -2), grad_y)
    grad_h = np.matmul(grad_y, w2.swapaxes(-1, -2))
    grad_h *= unblocked_act_grad(h, cache, activation)
    grad_x = np.matmul(grad_h, w1.swapaxes(-1, -2))
    grad_w1 = np.matmul(x.swapaxes(-1, -2), grad_h)
    return grad_x, grad_w1, grad_w2


def zero_padding(arr, rows):
    """``arr`` with every row at or beyond its expert's occupancy
    zeroed — what the dispatch scatter guarantees."""
    out = arr.copy()
    for e, n in enumerate(rows):
        out[e, n:] = 0
    return out


@st.composite
def ragged_cases(draw):
    """(x, w1, w2, grad_y, rows, activation): random shapes and
    occupancies, with an idle expert, ``rows == cap`` everywhere and a
    single occupied row all reachable."""
    e, cap = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    m, v = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows = draw(st.one_of(
        st.lists(st.integers(0, cap), min_size=e, max_size=e),
        st.just([cap] * e),
        st.just([0] * (e - 1) + [1])))
    x, w1, w2, gy = ffn_case(e, cap, m, v, dtype,
                             seed=draw(st.integers(0, 2 ** 16)))
    return (zero_padding(x, rows), w1, w2, zero_padding(gy, rows),
            np.array(rows), draw(st.sampled_from(["gelu", "relu"])))


@st.composite
def hostile_cases(draw):
    """(x, w1, w2, rows, activation): :func:`ragged_cases` with
    ``rows=None`` reachable and up to three entries or whole rows of
    ``x`` (occupied or padding) set to +-inf, NaN or a finite value
    whose cube overflows the dtype.  An inf row meets weights of both
    signs, so its hidden row holds the negative NaN of ``inf - inf``,
    which ``tanh`` turns positive: the operand order of the product
    decides which of the two the output carries."""
    x, w1, w2, _, rows, activation = draw(ragged_cases())
    big = np.sqrt(np.finfo(x.dtype).max)
    flat, by_row = x.reshape(-1), x.reshape(-1, x.shape[-1])
    for i, value, whole_row in draw(st.lists(st.tuples(
            st.integers(0, flat.size - 1),
            st.sampled_from([np.inf, -np.inf, np.nan, big, -big]),
            st.booleans()), max_size=3)):
        if whole_row:
            by_row[i // x.shape[-1]] = value
        else:
            flat[i] = value
    return x, w1, w2, draw(st.sampled_from([rows, None])), activation


def close(dtype):
    """The tolerance set beforehand from the dtype: a ragged GEMM
    blocks differently from a padded one, so equality is to rounding."""
    tol = 1e-6 if dtype == np.float32 else 1e-12
    return {"rtol": tol, "atol": 10 * tol}


class TestArrayKernels:
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_forward_matches_autograd_reference(self, activation):
        from tests.reference_ops import gelu, relu

        x, w1, w2, _ = ffn_case(dtype=np.float64)
        y, _ = ffn_forward_arrays(x, w1, w2, activation)
        act = gelu if activation == "gelu" else relu
        with substrate_dtype(np.float64):
            h = Tensor(x) @ Tensor(w1)
            ref = (act(h) @ Tensor(w2)).data
        np.testing.assert_array_equal(y, ref)

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_backward_matches_autograd_reference(self, activation):
        from tests.reference_ops import gelu, relu

        x, w1, w2, gy = ffn_case(dtype=np.float64)
        gx, gw1, gw2 = ffn_backward_arrays(x, w1, w2, gy, activation)
        act = gelu if activation == "gelu" else relu
        with substrate_dtype(np.float64):
            xt = Tensor(x, requires_grad=True)
            w1t = Tensor(w1, requires_grad=True)
            w2t = Tensor(w2, requires_grad=True)
            y = act(xt @ w1t) @ w2t
            (y * Tensor(gy)).sum().backward()
        np.testing.assert_allclose(gx, xt.grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gw1, w1t.grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gw2, w2t.grad, rtol=1e-12, atol=1e-12)

    def test_recompute_equals_saved(self):
        # The saved=None path recomputes (a, d); it must give the exact
        # same gradients as the saved-activations path.
        x, w1, w2, gy = ffn_case(dtype=np.float32)
        _, saved = ffn_forward_arrays(x, w1, w2, "gelu")
        with_saved = ffn_backward_arrays(x, w1, w2, gy, "gelu", saved)
        recomputed = ffn_backward_arrays(x, w1, w2, gy, "gelu", None)
        for a, b in zip(with_saved, recomputed):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("weight_grads", [True, False])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_saved_is_single_use(self, activation, weight_grads):
        # The backward writes over the saved activation, so a second
        # backward from the same ``saved`` would read gradients as
        # activations: it raises instead.
        x, w1, w2, gy = ffn_case()
        _, saved = ffn_forward_arrays(x, w1, w2, activation)
        ffn_backward_arrays(x, w1, w2, gy, activation, saved,
                            weight_grads=weight_grads)
        assert saved == []
        with pytest.raises(ValueError, match="saved"):
            ffn_backward_arrays(x, w1, w2, gy, activation, saved)

    def test_unknown_activation_rejected(self):
        x, w1, w2, _ = ffn_case()
        with pytest.raises(ValueError, match="activation"):
            ffn_forward_arrays(x, w1, w2, "swish")
        with pytest.raises(ValueError, match="activation"):
            act_backward(x, x, None, "swish")


class NumpyShim:
    """``numpy`` with some attributes overridden, to stand in for the
    ``np`` global of one module."""

    def __init__(self, **overrides):
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(np, name)


class TestBlockedActivations:
    """The block-by-block kernels run the whole-array expressions they
    replaced, pass for pass: equality is bitwise."""

    @staticmethod
    def inputs(dtype):
        rng = np.random.default_rng(11)
        cols = 96
        rows = 2 * BLOCK // cols + 5        # ragged last block
        wide = rng.normal(size=(rows, 2 * cols)).astype(dtype)
        return {
            "no rows": np.zeros((0, cols), dtype=dtype),
            "one row": rng.normal(size=(1, cols)).astype(dtype),
            "ragged last block": rng.normal(size=(rows, cols)).astype(dtype),
            "1-D": rng.normal(size=(BLOCK + 3,)).astype(dtype),
            "non-contiguous": wide[:, ::2],
        }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_bitwise_equal_to_unblocked(self, activation, dtype):
        for label, h in self.inputs(dtype).items():
            grad = np.cos(h)
            ref_a, ref_cache = unblocked_act_forward(h, activation)
            ref_d = unblocked_act_grad(h, ref_cache, activation)
            ref = grad * ref_d
            a, d = act_forward(h, activation)
            assert a.shape == h.shape and a.dtype == dtype, label
            np.testing.assert_array_equal(a, ref_a, err_msg=label)
            if activation == "gelu":
                np.testing.assert_array_equal(d, ref_d, err_msg=label)
            else:
                assert d is None, label
            got = act_backward(grad, a, d, activation)
            assert got.shape == h.shape and got.dtype == dtype, label
            np.testing.assert_array_equal(got, ref, err_msg=label)
            # In place over a contiguous copy of h, and without the
            # derivative: the same activation bits.
            for save in (True, False):
                owned = np.ascontiguousarray(h).copy()
                a_in, d_in = act_forward(owned, activation, in_place=True,
                                         save=save)
                assert a_in is owned, label
                assert a_in.tobytes() == a.tobytes(), label
                if save and activation == "gelu":
                    assert d_in.tobytes() == d.tobytes(), label
                else:
                    assert d_in is None, label

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_backward_in_place(self, activation):
        h = self.inputs(np.float32)["ragged last block"]
        grad = np.sin(h)
        a, d = act_forward(h, activation)
        expected = act_backward(grad, a, d, activation)
        assert act_backward(grad, a, d, activation, out=grad) is grad
        np.testing.assert_array_equal(grad, expected)

    def test_backward_rejects_strided_out(self):
        h = self.inputs(np.float32)["non-contiguous"]
        with pytest.raises(ValueError, match="contiguous"):
            act_backward(np.ones_like(h), h, None, "relu",
                         out=np.empty((h.shape[0], 2 * h.shape[1]),
                                      dtype=h.dtype)[:, ::2])


class TestNoUninitialisedReads:
    """ROADMAP 7f: the kernels write GEMMs with ``out=`` into
    ``np.empty`` arrays.  With every such array NaN-filled, any path
    that reads its destination (a BLAS call scaling ``out`` by
    ``beta = 0``, a block that is skipped) shows up as a NaN or an FP
    flag instead of one run in three."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    @pytest.mark.parametrize("rows", [[0, 1, 6, 3], [1, 1, 1, 1],
                                      [0, 0, 0, 1], [6, 6, 6, 6]])
    def test_nan_filled_empty(self, monkeypatch, rows, activation, dtype):
        def nan_empty(shape, dtype=float, **kwargs):
            out = np.empty(shape, dtype=dtype, **kwargs)
            out.fill(np.nan)
            return out

        monkeypatch.setattr(ffn, "np", NumpyShim(
            empty=nan_empty,
            empty_like=lambda a: nan_empty(a.shape, a.dtype)))
        x, w1, w2, gy = ffn_case(dtype=dtype)
        x, gy = zero_padding(x, rows), zero_padding(gy, rows)
        def saved():
            # The backward consumes ``saved``: a fresh forward each time.
            return ffn_forward_arrays(x, w1, w2, activation, rows)[1]

        with np.errstate(all="raise"):
            y, _ = ffn_forward_arrays(x, w1, w2, activation, rows)
            outputs = [y,
                       *ffn_backward_arrays(x, w1, w2, gy, activation,
                                            saved()),
                       *ffn_backward_arrays(x, w1, w2, gy, activation,
                                            rows=rows),
                       ffn_backward_arrays(x, w1, w2, gy, activation,
                                           saved(), weight_grads=False)[0]]
        for out in outputs:
            assert np.isfinite(out).all()


class DotCounter(np.ndarray):
    """Counts ``.dot`` calls (one GEMM each in the FFN kernels)."""

    calls = 0

    def dot(self, *args, **kwargs):
        DotCounter.calls += 1
        return np.asarray(self).dot(*args, **kwargs)


class TestFrozenExperts:
    def test_frozen_moe_runs_two_backward_gemms_per_expert(
            self, monkeypatch):
        """Frozen expert weights (the Table 10 fine-tune) receive no
        gradient, so the backward runs the two input-gradient GEMMs of
        each occupied expert and neither weight-gradient GEMM."""
        from repro.nn.moe import MoE

        real_common = ffn._common
        monkeypatch.setattr(ffn, "_common", lambda *arrays: [
            a.view(DotCounter) for a in real_common(*arrays)])
        monkeypatch.setattr(ffn, "np", NumpyShim(
            empty=lambda *a, **k: np.empty(*a, **k).view(DotCounter)))

        def backward_gemms(frozen):
            rng = np.random.default_rng(0)
            moe = MoE(8, 16, num_experts=4, top_k=2, rng=rng)
            if frozen:
                moe.w1.requires_grad = moe.w2.requires_grad = False
            x = Tensor(rng.normal(size=(24, 8)), requires_grad=True)
            DotCounter.calls = 0
            out, l_aux = moe(x)
            occupied = DotCounter.calls / 2     # two forward GEMMs each
            (out.sum() + l_aux).backward()
            assert (moe.w1.grad is None) == frozen
            assert x.grad is not None and moe.gate.weight.grad is not None
            return (DotCounter.calls - 2 * occupied) / occupied

        assert backward_gemms(frozen=False) == 4
        assert backward_gemms(frozen=True) == 2


class TestFrozenForward:
    """``save=False`` runs the activation in place over the hidden
    array: the same ops in the same operand order, so the same bytes,
    NaN payloads included, and no saved activations."""

    @given(case=hostile_cases())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_to_saving_forward(self, case):
        x, w1, w2, rows, activation = case
        with np.errstate(all="ignore"):
            y, saved = ffn_forward_arrays(x, w1, w2, activation, rows)
            y_f, saved_f = ffn_forward_arrays(x, w1, w2, activation, rows,
                                              save=False)
        assert saved is not None and saved_f is None
        assert (y_f.dtype, y_f.shape) == (y.dtype, y.shape)
        assert y_f.tobytes() == y.tobytes()

    def test_frozen_expert_ffn_keeps_no_activations(self):
        # Serving's shape: E=8, cap=160, 128 rows per expert, M=128,
        # H=512.  Saving, h, a and the tanh cache are all live (3x h);
        # frozen, only h, the output and one block of scratch are.
        from repro.autograd.moe_ops import expert_ffn

        e, cap, n, m, v = 8, 160, 128, 128, 512
        rng = np.random.default_rng(0)
        x = np.zeros((e, cap, m), dtype=np.float32)
        x[:, :n] = rng.standard_normal((e, n, m), dtype=np.float32)
        w1, w2 = (rng.standard_normal(shape, dtype=np.float32) * 0.1
                  for shape in ((e, m, v), (e, v, m)))
        args = [Tensor(a, dtype=np.float32) for a in (x, w1, w2)]
        h_nbytes = e * n * v * 4
        out, peak = traced_peak(expert_ffn, *args, "gelu", rows=[n] * e)
        assert out.data.dtype == np.float32
        assert peak < 2 * h_nbytes

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_frozen_moe_forward_is_the_taped_one(self, activation):
        # Enough routed rows that the hidden array spans several
        # BLOCKs with a ragged last one.
        from copy import deepcopy

        from repro.nn.moe import MoE

        rng = np.random.default_rng(3)
        taped = MoE(16, 200, 4, rng, top_k=2, activation=activation)
        frozen = deepcopy(taped)
        frozen.freeze()
        x = rng.normal(size=(257, 16)).astype(np.float32)
        out, l_aux = taped(Tensor(x, dtype=np.float32))
        out_f, l_aux_f = frozen(Tensor(x, dtype=np.float32))
        assert out._backward is not None and out_f._backward is None
        assert sum(frozen.last_routing_criteria.occupancy) * 200 > 2 * BLOCK
        for a, b in ((out, out_f), (l_aux, l_aux_f)):
            assert (a.data.dtype, a.shape) == (b.data.dtype, b.shape)
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("failed", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_frozen_l_aux_is_the_taped_one(self, k, failed, dtype):
        # The frozen forward computes l_aux on the first read of its
        # data; that read, and every later one, is the taped op's
        # value, dtype and shape bit for bit (k = E = 4 shrinks to 3
        # with an expert down).
        from copy import deepcopy

        from repro.nn.moe import MoE

        with substrate_dtype(dtype):
            rng = np.random.default_rng(11)
            taped = MoE(16, 32, 4, rng, top_k=k)
            if failed:
                taped.mask_expert(2)
            frozen = deepcopy(taped)
            frozen.freeze()
            x = rng.normal(size=(77, 16)).astype(dtype)
            _, l_aux = taped(Tensor(x))
            _, l_aux_f = frozen(Tensor(x))
        assert l_aux._backward is not None and l_aux_f._backward is None
        assert not l_aux_f.requires_grad and l_aux_f._parents == ()
        for _ in range(2):
            assert (l_aux_f.data.dtype, l_aux_f.shape) == (dtype, ())
            assert l_aux_f.data.tobytes() == l_aux.data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_frozen_classifier_aux_is_the_taped_one(self, dtype):
        # MoEClassifier sums and scales its layers' l_aux on every
        # forward: frozen, those tensor ops read each lazy l_aux and
        # give the taped forward's bytes.
        from copy import deepcopy

        from repro.nn.models import MoEClassifier

        with substrate_dtype(dtype):
            rng = np.random.default_rng(12)
            taped = MoEClassifier(6, 16, 32, 3, 4, 4, rng, top_k=2)
            frozen = deepcopy(taped)
            frozen.freeze()
            x = rng.normal(size=(40, 6))
            logits, aux = taped(Tensor(x))
            logits_f, aux_f = frozen(Tensor(x))
        assert len(taped.moe_layers()) == 2
        assert aux._backward is not None and aux_f._backward is None
        for a, b in ((logits, logits_f), (aux, aux_f)):
            assert (a.data.dtype, a.shape) == (b.data.dtype, b.shape)
            assert a.data.tobytes() == b.data.tobytes()


class TestRaggedKernels:
    """Multiplying only ``x[e, :rows[e]]`` changes no output: padded
    rows are exact zeros in and out of a bias-free FFN."""

    @given(case=ragged_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_padded_oracle(self, case):
        x, w1, w2, gy, rows, activation = case
        y, saved = ffn_forward_arrays(x, w1, w2, activation, rows)
        grads = ffn_backward_arrays(x, w1, w2, gy, activation, saved)
        ref = (padded_forward(x, w1, w2, activation)[0],
               *padded_backward(x, w1, w2, gy, activation))
        for got, want in zip((y, *grads), ref):
            assert got.shape == want.shape and got.dtype == x.dtype
            np.testing.assert_allclose(got, want, **close(x.dtype))

    @given(case=ragged_cases())
    @settings(max_examples=60, deadline=None)
    def test_padding_and_idle_experts_are_exact_zeros(self, case):
        x, w1, w2, gy, rows, activation = case
        y, saved = ffn_forward_arrays(x, w1, w2, activation, rows)
        gx, gw1, gw2 = ffn_backward_arrays(x, w1, w2, gy, activation,
                                           saved)
        for e, n in enumerate(rows):
            assert not y[e, n:].any() and not gx[e, n:].any()
            if n == 0:
                assert not gw1[e].any() and not gw2[e].any()

    @given(case=ragged_cases())
    @settings(max_examples=60, deadline=None)
    def test_nan_poisoned_padding_is_never_read(self, case):
        x, w1, w2, gy, rows, activation = case
        clean = (ffn_forward_arrays(x, w1, w2, activation, rows)[0],
                 *ffn_backward_arrays(x, w1, w2, gy, activation,
                                      rows=rows))
        for e, n in enumerate(rows):
            x[e, n:] = np.nan
            gy[e, n:] = np.nan
        y, saved = ffn_forward_arrays(x, w1, w2, activation, rows)
        poisoned = (y, *ffn_backward_arrays(x, w1, w2, gy, activation,
                                            saved))
        for got, want in zip(poisoned, clean):
            assert np.isfinite(got).all()
            np.testing.assert_array_equal(got, want)

    @given(case=ragged_cases())
    @settings(max_examples=30, deadline=None)
    def test_recompute_equals_saved(self, case):
        x, w1, w2, gy, rows, activation = case
        _, saved = ffn_forward_arrays(x, w1, w2, activation, rows)
        with_saved = ffn_backward_arrays(x, w1, w2, gy, activation, saved)
        recomputed = ffn_backward_arrays(x, w1, w2, gy, activation,
                                         rows=rows)
        for a, b in zip(with_saved, recomputed):
            np.testing.assert_array_equal(a, b)

    @given(case=hostile_cases(), wide_grad=st.booleans(),
           weight_grads=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_bytes_equal_to_saving_kernels(self, case, wide_grad,
                                           weight_grads):
        # Saving (a, act'(h)) and writing over a changes no byte (NaN
        # payloads included) against the kernels that kept (h, a,
        # cache); a float64 grad_y over float32 operands takes a fresh
        # array instead of the saved one.
        x, w1, w2, rows, activation = case
        gy = np.random.default_rng(1).normal(size=x.shape)
        gy = gy.astype(np.float64 if wide_grad else x.dtype)
        with np.errstate(all="ignore"):
            y, saved = ffn_forward_arrays(x, w1, w2, activation, rows)
            got = (y, *ffn_backward_arrays(x, w1, w2, gy, activation,
                                           saved,
                                           weight_grads=weight_grads))
            want_y, backward = saving_expert_kernels(x, w1, w2,
                                                     activation, rows)
            want = (want_y, *backward(gy, weight_grads))
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_none_means_every_row(self, dtype):
        x, w1, w2, gy = ffn_case(dtype=dtype)
        full = [x.shape[1]] * x.shape[0]
        for a, b in zip(
                (ffn_forward_arrays(x, w1, w2, "gelu")[0],
                 *ffn_backward_arrays(x, w1, w2, gy, "gelu")),
                (ffn_forward_arrays(x, w1, w2, "gelu", full)[0],
                 *ffn_backward_arrays(x, w1, w2, gy, "gelu", rows=full))):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("rows", [[6, 6, 6], [6, 6, 6, 7],
                                      [6, 6, 6, -1]])
    def test_bad_rows_rejected(self, rows):
        x, w1, w2, gy = ffn_case()
        with pytest.raises(ValueError, match="rows"):
            ffn_forward_arrays(x, w1, w2, "gelu", rows)
        with pytest.raises(ValueError, match="rows"):
            ffn_backward_arrays(x, w1, w2, gy, "gelu", rows=rows)


class TestTapedLiveSet:
    """A taped forward and backward holds what the backward reads, the
    activation (written over ``h``) and GELU's derivative, and the
    outputs.  The expert kernel releases the derivative before its
    input and weight gradients exist, so one ``h``-sized array is live
    beside all the outputs; the dense op's forward holds two.  A third
    ``h``-sized array (a tanh cache, a rebuilt activation, a fresh
    gradient w.r.t. it) fails either bound."""

    def test_expert_ffn_at_train_wide_shape(self):
        # train_wide's expert layer: E=8, cap=320, M=128, V=512 and
        # 1,500 occupied rows.
        from repro.autograd.moe_ops import expert_ffn

        e, cap, m, v = 8, 320, 128, 512
        rows = [200, 180, 190, 170, 210, 185, 195, 170]
        rng = np.random.default_rng(0)
        x = np.zeros((e, cap, m), dtype=np.float32)
        for i, n in enumerate(rows):
            x[i, :n] = rng.standard_normal((n, m), dtype=np.float32)
        w1, w2 = (rng.standard_normal(shape, dtype=np.float32) * 0.1
                  for shape in ((e, m, v), (e, v, m)))
        grad = rng.standard_normal(x.shape, dtype=np.float32)
        args = [Tensor(a, dtype=np.float32, requires_grad=True)
                for a in (x, w1, w2)]

        def step():
            out = expert_ffn(*args, "gelu", rows=rows)
            out.backward(grad)
            return out

        out, peak = traced_peak(step)
        hidden = sum(rows) * v * 4
        outputs = out.data.nbytes + sum(t.grad.nbytes for t in args)
        assert peak < 1.25 * hidden + outputs

    def test_dense_ffn_at_1024_by_128_to_512(self):
        from repro.autograd.functional import ffn as dense_ffn

        rng = np.random.default_rng(0)
        args = [Tensor(rng.standard_normal(s, dtype=np.float32),
                       dtype=np.float32, requires_grad=True)
                for s in [(1024, 128), (128, 512), (512,), (512, 128),
                          (128,)]]
        grad = rng.standard_normal((1024, 128), dtype=np.float32)

        def step():
            out = dense_ffn(*args, "gelu")
            out.backward(grad)
            return out

        out, peak = traced_peak(step)
        hidden = 1024 * 512 * 4
        outputs = out.data.nbytes + sum(t.grad.nbytes for t in args)
        assert peak < 2.25 * hidden + outputs
