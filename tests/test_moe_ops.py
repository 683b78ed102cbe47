"""Gradient checks for the differentiable MoE dispatch/combine ops."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd.moe_ops import expert_ffn, moe_combine, moe_dispatch
from repro.autograd.tensor import Tensor
from repro.moe.gating import softmax
from repro.nn.moe import route


@pytest.fixture(autouse=True)
def _float64_substrate():
    """Numeric gradient checks stay in float64: central differences at
    float32 lose half the mantissa to roundoff (see ISSUE 6 / DESIGN
    dtype conventions)."""
    from repro.core.substrate import substrate_dtype
    with substrate_dtype(np.float64):
        yield


def routing(t=12, e=4, k=2, capacity=None, seed=0):
    rng = np.random.default_rng(seed)
    probs = softmax(rng.normal(size=(t, e)))
    routing = route(probs, k, capacity=capacity or t)
    return routing.crit.with_gates(routing.gates), rng


class TestMoeDispatch:
    def test_forward_matches_kernel(self):
        crit, rng = routing()
        x = rng.normal(size=(12, 5))
        from repro.moe.encode import fast_encode
        out = moe_dispatch(Tensor(x), crit)
        np.testing.assert_allclose(out.data, fast_encode(x, crit))

    def test_gradient_numeric(self):
        crit, rng = routing(t=6, e=3, k=2, seed=1)
        x = rng.normal(size=(6, 4))
        w = rng.normal(size=(3, crit.capacity, 4))
        t = Tensor(x, requires_grad=True)
        (moe_dispatch(t, crit) * Tensor(w)).sum().backward()
        eps = 1e-6
        from repro.moe.encode import fast_encode
        numeric = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            numeric[idx] = (np.sum(fast_encode(xp, crit) * w)
                            - np.sum(fast_encode(xm, crit) * w)) / (2 * eps)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)


class TestMoeCombine:
    def test_forward_uses_live_gates(self):
        crit, rng = routing()
        z = rng.normal(size=(4, crit.capacity, 5))
        doubled = Tensor(2.0 * crit.gates)
        out2 = moe_combine(Tensor(z), doubled, crit)
        out1 = moe_combine(Tensor(z), Tensor(crit.gates.copy()), crit)
        np.testing.assert_allclose(out2.data, 2.0 * out1.data)

    def test_gradients_numeric(self):
        crit, rng = routing(t=5, e=3, k=2, seed=2)
        z = rng.normal(size=(3, crit.capacity, 4))
        g = crit.gates.copy()
        w = rng.normal(size=(5, 4))

        zt = Tensor(z, requires_grad=True)
        gt = Tensor(g, requires_grad=True)
        (moe_combine(zt, gt, crit) * Tensor(w)).sum().backward()

        from repro.moe.encode import fast_decode
        from repro.moe.gating import RoutingCriteria

        def value(zv, gv):
            live = RoutingCriteria(idxs=crit.idxs,
                                   locations=crit.locations,
                                   gates=np.where(crit.plan.valid, gv, 0.0),
                                   capacity=crit.capacity,
                                   num_experts=crit.num_experts)
            return float(np.sum(fast_decode(zv, live) * w))

        eps = 1e-6
        nz = np.zeros_like(z)
        for idx in np.ndindex(z.shape):
            zp, zm = z.copy(), z.copy()
            zp[idx] += eps
            zm[idx] -= eps
            nz[idx] = (value(zp, g) - value(zm, g)) / (2 * eps)
        np.testing.assert_allclose(zt.grad, nz, atol=1e-5)

        ng = np.zeros_like(g)
        for idx in np.ndindex(g.shape):
            gp, gm = g.copy(), g.copy()
            gp[idx] += eps
            gm[idx] -= eps
            ng[idx] = (value(z, gp) - value(z, gm)) / (2 * eps)
        np.testing.assert_allclose(gt.grad, ng, atol=1e-5)

    def test_rejects_gate_shape_mismatch(self):
        crit, rng = routing()
        z = Tensor(rng.normal(size=(4, crit.capacity, 5)))
        with pytest.raises(ValueError):
            moe_combine(z, Tensor(np.zeros((3, 12))), crit)

    def test_dropped_slots_get_no_gate_grad(self):
        crit, rng = routing(t=16, e=2, k=1, capacity=2, seed=3)
        assert crit.dropped_fraction() > 0
        z = Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True)
        g = Tensor(np.ones_like(crit.gates), requires_grad=True)
        moe_combine(z, g, crit).sum().backward()
        assert (g.grad[~crit.plan.valid] == 0).all()


class TestBatchedExpertGemm:
    """The per-expert GEMM ``(E, dC, M) @ (E, M, V)`` is plain
    ``Tensor.__matmul__`` on 3-D arrays."""

    def test_forward(self):
        rng = np.random.default_rng(4)
        d = rng.normal(size=(3, 5, 4))
        w = rng.normal(size=(3, 4, 6))
        out = Tensor(d) @ Tensor(w)
        np.testing.assert_allclose(out.data, np.einsum("ecm,emv->ecv",
                                                       d, w))

    def test_gradients_numeric(self):
        rng = np.random.default_rng(5)
        d = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(2, 4, 3))
        dt = Tensor(d, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        (dt @ wt).sum().backward()

        def value(dv, wv):
            return float(np.einsum("ecm,emv->ecv", dv, wv).sum())
        eps = 1e-6
        nd = np.zeros_like(d)
        for idx in np.ndindex(d.shape):
            dp, dm = d.copy(), d.copy()
            dp[idx] += eps
            dm[idx] -= eps
            nd[idx] = (value(dp, w) - value(dm, w)) / (2 * eps)
        np.testing.assert_allclose(dt.grad, nd, atol=1e-5)
        nw = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            wp, wm = w.copy(), w.copy()
            wp[idx] += eps
            wm[idx] -= eps
            nw[idx] = (value(d, wp) - value(d, wm)) / (2 * eps)
        np.testing.assert_allclose(wt.grad, nw, atol=1e-5)


class TestRaggedExpertFfn:
    """``expert_ffn(rows=crit.occupancy)`` inside dispatch -> FFN ->
    combine equals the all-rows op (``rows=None``): output and every
    gradient, to the rounding of a differently blocked GEMM."""

    @staticmethod
    def layer(crit, x, w1, w2, gates, rows):
        from repro.core.substrate import substrate_dtype
        with substrate_dtype(x.dtype):
            leaves = [Tensor(a, requires_grad=True)
                      for a in (x, w1, w2, gates)]
            xt, w1t, w2t, gt = leaves
            out = moe_combine(
                expert_ffn(moe_dispatch(xt, crit), w1t, w2t, "gelu",
                           rows=rows), gt, crit)
            (out * out).sum().backward()
        return [out.data] + [t.grad for t in leaves]

    def check(self, probs, k, cap, dtype, m=5, v=7):
        t, e = probs.shape
        routing = route(probs, k, capacity=cap)
        crit = routing.crit.with_gates(routing.gates)
        rng = np.random.default_rng(t * 100 + e * 10 + k)
        x = rng.normal(size=(t, m)).astype(dtype)
        w1 = rng.normal(size=(e, m, v)).astype(dtype)
        w2 = rng.normal(size=(e, v, m)).astype(dtype)
        gates = crit.gates.astype(dtype)
        tol = 1e-6 if dtype == np.float32 else 1e-12
        for got, want in zip(
                self.layer(crit, x, w1, w2, gates, crit.occupancy),
                self.layer(crit, x, w1, w2, gates, None)):
            assert got.dtype == dtype
            scale = max(1.0, float(np.abs(want).max(initial=0.0)))
            np.testing.assert_allclose(got, want, rtol=tol,
                                       atol=tol * scale)

    @given(t=st.integers(1, 24), e=st.integers(1, 6), k=st.integers(1, 6),
           cap=st.integers(1, 10),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=40, deadline=None)
    def test_matches_all_rows_op(self, t, e, k, cap, dtype):
        rng = np.random.default_rng(t * 1000 + e * 100 + k * 10 + cap)
        self.check(softmax(rng.normal(size=(t, e))), min(k, e), cap, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_degenerate_routings(self, dtype):
        rng = np.random.default_rng(7)
        one_expert = np.zeros((9, 4))
        one_expert[:, 1] = 1.0
        self.check(softmax(rng.normal(size=(1, 4))), 2, 3, dtype)   # T = 1
        self.check(softmax(rng.normal(size=(6, 3))), 3, 4, dtype)   # k = E
        self.check(one_expert, 1, 5, dtype)      # all tokens, one expert
        self.check(one_expert, 1, 20, dtype)     # ... with room to spare

    def test_adaptive_capacity_is_dropless_and_unpadded(self):
        # capacity_factor = 0 sizes the slabs to the busiest expert, so
        # nothing is dropped; with the occupancy the FFN then runs
        # exactly the k*T routed rows, no padding.
        from repro.nn.moe import MoE

        rng = np.random.default_rng(11)
        moe = MoE(8, 16, 4, rng, top_k=2, capacity_factor=0.0)
        moe(Tensor(rng.normal(size=(37, 8))))
        crit = moe.last_routing_criteria
        assert crit.dropped_fraction() == 0.0
        assert int(crit.occupancy.sum()) == 2 * 37
        assert int(crit.occupancy.max()) == crit.capacity
