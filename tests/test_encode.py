"""Dense vs sparse encode/decode equivalence and gradient checks.

The core correctness claim of Section 4.2: the sparse O(T*k*M)
implementation computes exactly what the dense O(T*E*dC*M) einsum does.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.moe.encode import (
    dense_combine_weights,
    dense_decode,
    dense_dispatch_mask,
    dense_encode,
    fast_decode,
    fast_decode_backward,
    fast_encode,
    fast_encode_backward,
)
from repro.moe.gating import softmax
from repro.nn.moe import route


def random_case(t=32, e=8, m=16, k=2, capacity=None, seed=0,
                drop_some=False):
    rng = np.random.default_rng(seed)
    probs = softmax(rng.normal(size=(t, e)))
    cap = capacity or (2 if drop_some else t)
    routing = route(probs, k, capacity=cap)
    crit = routing.crit.with_gates(routing.gates)
    x = rng.normal(size=(t, m))
    z = rng.normal(size=(e, crit.capacity, m))
    return x, z, crit


class TestDenseSparseEquivalence:
    def test_encode_matches(self):
        x, _, crit = random_case()
        np.testing.assert_allclose(fast_encode(x, crit),
                                   dense_encode(x, crit))

    def test_decode_matches(self):
        _, z, crit = random_case()
        np.testing.assert_allclose(fast_decode(z, crit),
                                   dense_decode(z, crit))

    def test_encode_matches_with_drops(self):
        x, _, crit = random_case(drop_some=True)
        assert crit.dropped_fraction() > 0
        np.testing.assert_allclose(fast_encode(x, crit),
                                   dense_encode(x, crit))

    def test_decode_matches_with_drops(self):
        _, z, crit = random_case(drop_some=True)
        np.testing.assert_allclose(fast_decode(z, crit),
                                   dense_decode(z, crit))

    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(2, 40), e=st.integers(2, 8),
           m=st.integers(1, 12), k=st.integers(1, 3),
           cap=st.integers(1, 16), seed=st.integers(0, 100))
    def test_property_equivalence(self, t, e, m, k, cap, seed):
        if k > e:
            return
        x, z, crit = random_case(t, e, m, k, capacity=cap, seed=seed)
        np.testing.assert_allclose(fast_encode(x, crit),
                                   dense_encode(x, crit), atol=1e-12)
        np.testing.assert_allclose(fast_decode(z, crit),
                                   dense_decode(z, crit), atol=1e-12)

    def test_roundtrip_identity_weights(self):
        # With k=1, unnormalized gates, capacity >= T and gate value g,
        # decode(encode(x)) returns g * x for surviving tokens.
        rng = np.random.default_rng(3)
        probs = softmax(rng.normal(size=(16, 4)))
        routing = route(probs, 1, capacity=16)
        crit = routing.crit.with_gates(routing.gates)
        x = rng.normal(size=(16, 8))
        out = fast_decode(fast_encode(x, crit), crit)
        np.testing.assert_allclose(out, crit.gates[0][:, None] * x)


class TestDenseTensors:
    def test_combine_weights_shape(self):
        _, _, crit = random_case()
        cw = dense_combine_weights(crit)
        assert cw.shape == (crit.num_tokens, crit.num_experts,
                            crit.capacity)

    def test_combine_weights_sparsity(self):
        _, _, crit = random_case(t=32, k=2)
        cw = dense_combine_weights(crit)
        assert (cw > 0).sum() == crit.plan.valid.sum()

    def test_dispatch_mask_boolean(self):
        _, _, crit = random_case()
        assert dense_dispatch_mask(crit).dtype == bool

    def test_each_cell_holds_one_token(self):
        _, _, crit = random_case(t=64, k=2)
        mask = dense_dispatch_mask(crit)
        assert (mask.sum(axis=0) <= 1).all()


class TestSparseBackward:
    def test_encode_backward_numeric(self):
        x, _, crit = random_case(t=10, e=4, m=5, k=2, seed=7)
        grad_out = np.random.default_rng(8).normal(
            size=(crit.num_experts, crit.capacity, 5))
        analytic = fast_encode_backward(grad_out, crit)
        eps = 1e-6
        numeric = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += eps
                xm[i, j] -= eps
                fp = np.sum(fast_encode(xp, crit) * grad_out)
                fm = np.sum(fast_encode(xm, crit) * grad_out)
                numeric[i, j] = (fp - fm) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_decode_backward_wrt_z_numeric(self):
        _, z, crit = random_case(t=8, e=3, m=4, k=2, seed=9)
        grad_out = np.random.default_rng(10).normal(
            size=(crit.num_tokens, 4))
        grad_z, _ = fast_decode_backward(grad_out, z, crit)
        eps = 1e-6
        numeric = np.zeros_like(z)
        for cell in np.ndindex(z.shape):
            zp, zm = z.copy(), z.copy()
            zp[cell] += eps
            zm[cell] -= eps
            fp = np.sum(fast_decode(zp, crit) * grad_out)
            fm = np.sum(fast_decode(zm, crit) * grad_out)
            numeric[cell] = (fp - fm) / (2 * eps)
        np.testing.assert_allclose(grad_z, numeric, atol=1e-6)

    def test_decode_backward_wrt_gates(self):
        _, z, crit = random_case(t=8, e=3, m=4, k=2, seed=11)
        grad_out = np.random.default_rng(12).normal(size=(8, 4))
        _, grad_gates = fast_decode_backward(grad_out, z, crit)
        # d/dg of g * z[cell] . grad = z[cell] . grad at each slot.
        flat = z.reshape(-1, 4)
        for slot in range(2):
            for t in range(8):
                if not crit.plan.valid[slot, t] or crit.gates[slot, t] == 0:
                    assert grad_gates[slot, t] == 0
                    continue
                cell = (crit.idxs[slot, t] * crit.capacity
                        + crit.locations[slot, t])
                expected = float(flat[cell] @ grad_out[t])
                assert grad_gates[slot, t] == pytest.approx(expected)

    def test_backward_shapes_validated(self):
        x, z, crit = random_case()
        with pytest.raises(ValueError):
            fast_encode_backward(z[:, :, :-1][:, :-1], crit)
        with pytest.raises(ValueError):
            fast_decode_backward(np.zeros((3, 3)), z, crit)


class TestShapeValidation:
    def test_encode_rejects_wrong_tokens(self):
        x, _, crit = random_case()
        with pytest.raises(ValueError):
            fast_encode(x[:-1], crit)

    def test_decode_rejects_wrong_dispatch(self):
        _, z, crit = random_case()
        with pytest.raises(ValueError):
            fast_decode(z[:-1], crit)
        with pytest.raises(ValueError):
            dense_decode(z[:, :-1], crit)


class TestZeroGateAndDropAgreement:
    """Dense/fast agreement on the awkward cases: a *valid* slot whose
    gate is exactly 0.0 (both paths must skip it) and tokens dropped at
    every slot (their decode row must be exactly zero), across dtypes.
    """

    @staticmethod
    def _crit_with_zero_gates_and_drops(seed, t, e, k, cap):
        rng = np.random.default_rng(seed)
        probs = softmax(rng.normal(size=(t, e)))
        routing = route(probs, k, capacity=cap)
        crit, gates = routing.crit, routing.gates.copy()
        locations = crit.locations.copy()
        # Zero the gate of one random *valid* slot per sampled token.
        valid_slots, valid_tokens = np.nonzero(crit.plan.valid)
        if len(valid_tokens):
            pick = rng.integers(0, len(valid_tokens),
                                max(1, len(valid_tokens) // 4))
            gates[valid_slots[pick], valid_tokens[pick]] = 0.0
        # Fully drop a random subset of tokens (all slots invalid).
        dropped = rng.random(t) < 0.25
        locations[:, dropped] = crit.capacity
        gates[:, dropped] = 0.0
        return rng, replace(crit, gates=gates, locations=locations), dropped

    @given(seed=st.integers(0, 300), t=st.integers(1, 32),
           e=st.integers(2, 8), k=st.integers(1, 3),
           cap=st.integers(1, 8),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_agree(self, seed, t, e, k, cap, dtype):
        k = min(k, e)
        rng, crit, dropped = self._crit_with_zero_gates_and_drops(
            seed, t, e, k, cap)
        m = 5
        x = rng.normal(size=(t, m)).astype(dtype)
        z = rng.normal(size=(e, crit.capacity, m)).astype(dtype)
        tol = dict(rtol=1e-5, atol=1e-6) if dtype == np.float32 \
            else dict(rtol=1e-12, atol=1e-14)

        enc_fast = fast_encode(x, crit)
        enc_dense = dense_encode(x, crit)
        assert enc_fast.dtype == enc_dense.dtype == dtype
        np.testing.assert_allclose(enc_fast, enc_dense, **tol)

        dec_fast = fast_decode(z, crit)
        dec_dense = dense_decode(z, crit)
        assert dec_fast.dtype == dec_dense.dtype == dtype
        np.testing.assert_allclose(dec_fast, dec_dense, **tol)

        # Fully-dropped tokens contribute nothing and receive nothing.
        np.testing.assert_array_equal(dec_fast[dropped],
                                      np.zeros((dropped.sum(), m), dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_combine_weights_follow_gate_dtype(self, dtype):
        # Regression (ISSUE 6): dense_combine_weights allocated an
        # untyped np.zeros, upcasting the whole dense reference path
        # to float64 whenever the gates were float32.
        _, _, crit = random_case()
        crit.gates = crit.gates.astype(dtype)
        assert dense_combine_weights(crit).dtype == dtype
        x = np.ones((crit.num_tokens, 3), dtype=dtype)
        assert dense_encode(x, crit).dtype == dtype

    def test_zero_gate_valid_slot_not_dispatched(self):
        # One token, one expert, gate exactly 0.0 on a valid slot: the
        # fast path must not scatter it (gates != 0 filter) and the
        # dense mask (combine > 0) must agree.
        crit = route(np.array([[1.0]]), 1, capacity=1).crit
        crit.gates[0, 0] = 0.0
        x = np.ones((1, 3))
        np.testing.assert_array_equal(fast_encode(x, crit),
                                      np.zeros((1, 1, 3)))
        np.testing.assert_array_equal(dense_encode(x, crit),
                                      np.zeros((1, 1, 3)))


class TestDispatchBufferPool:
    """The fast kernels keep no output buffers: each call's zeroed
    output is its own, and ``dispatch_buffer_pool()`` only counts them
    for the benchmark harness."""

    @staticmethod
    def _kernel_outputs(x, z, crit):
        grad_z, grad_gates = fast_decode_backward(x, z, crit)
        return [fast_encode(x, crit), fast_encode_backward(z, crit),
                fast_decode(z, crit), grad_z, grad_gates]

    def test_no_reuse_while_held(self):
        # Two live outputs of each kernel never share memory, views
        # included, and the second call's result is unchanged by what
        # the first one's holder writes.
        x, z, crit = random_case()
        first = self._kernel_outputs(x, z, crit)
        expected = [out.copy() for out in first]
        second = self._kernel_outputs(x, z, crit)
        for a, b, want in zip(first, second, expected):
            assert not np.shares_memory(a, b)
            a.reshape(-1)[...] = 7.0
            np.testing.assert_array_equal(b, want)

    def test_view_keeps_buffer_out_of_reuse(self):
        # An autograd graph typically holds a reshape view, not the
        # base array; a later call must not hand out the base's memory
        # while that view is alive.
        x, _, crit = random_case()
        a = fast_encode(x, crit)
        expected = a.copy()
        view = a.reshape(-1)
        del a
        b = fast_encode(x, crit)
        assert not np.shares_memory(b, view)
        view[...] = 9.0
        np.testing.assert_array_equal(b, expected)

    def test_serve_replay_keeps_no_buffers(self, monkeypatch):
        # A frozen serving replay counts one miss per kernel call, never
        # a hit, and holds nothing afterwards: the counters
        # benchmarks/perf/worker.py reads.
        from repro.autograd import moe_ops
        from repro.moe.encode import dispatch_buffer_pool
        from repro.serve.engine import serve_workload
        from repro.serve.workloads import get_workload

        calls = {"n": 0}
        for name in ("fast_encode", "fast_encode_backward", "fast_decode",
                     "fast_decode_backward"):
            def counted(*args, _kernel=getattr(moe_ops, name)):
                calls["n"] += 1
                return _kernel(*args)
            monkeypatch.setattr(moe_ops, name, counted)
        pool = dispatch_buffer_pool()
        hits, misses = pool.hits, pool.misses
        workload = get_workload("poisson_steady")
        result = serve_workload(workload, fast=True, seed=0)
        # Forward only: one encode and one decode per layer per batch.
        assert calls["n"] == 2 * workload.num_layers * len(result.batches)
        assert pool.misses - misses == calls["n"]
        assert pool.hits == hits == 0
        assert pool._free == {}
