"""Tests for gating functions, routing, and BPR."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd.functional import softmax as taped_softmax
from repro.autograd.moe_ops import route_gates, route_l_aux
from repro.autograd.tensor import Tensor
from repro.core.substrate import substrate_dtype
from repro.moe.gating import RoutingCriteria, compute_locations, softmax
from repro.nn.moe import MoE, Routing, route
from tests.reference_ops import compute_locations_reference
from tests.test_autograd import numeric_grad


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        p = softmax(rng.normal(size=(16, 8)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_stable_for_large_logits(self):
        p = softmax(np.array([[1e4, 1e4 - 1.0]]))
        assert np.isfinite(p).all()

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(4, 5))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0))


class TestGateLogits:
    """The routers are ``nn.MoE``'s taped ``gate_logits`` (the multi-rank
    forwards route with it too): linear ``x @ Wg`` and the cosine router
    of Equation (2)."""

    @staticmethod
    def layer(rng, model_dim=16, router="linear", tau=0.3):
        with substrate_dtype(np.float64):
            moe = MoE(model_dim, 8, 8, rng, router=router, router_dim=8)
        if router == "cosine":
            moe.log_temperature.data = np.asarray(np.log(tau))
        return moe

    @staticmethod
    def logits(moe, x):
        return moe.gate_logits(Tensor(x, dtype=np.float64)).data

    def test_linear_shape(self, rng):
        moe = self.layer(rng)
        assert self.logits(moe, rng.normal(size=(32, 16))).shape == (32, 8)

    def test_linear_rejects_mismatch(self, rng):
        moe = self.layer(rng, model_dim=3)
        with pytest.raises(ValueError):
            self.logits(moe, rng.normal(size=(4, 5)))

    def test_cosine_bounded_by_temperature(self, rng):
        moe = self.layer(rng, router="cosine", tau=0.5)
        logits = self.logits(moe, rng.normal(size=(64, 16)))
        assert np.abs(logits).max() <= 1.0 / 0.5 + 1e-9

    def test_cosine_temperature_floor(self, rng):
        # tau is clamped at 0.01 from below (paper: "set lowest 0.01").
        moe = self.layer(rng, router="cosine", tau=1e-6)
        x = rng.normal(size=(8, 16))
        tiny = self.logits(moe, x)
        moe.log_temperature.data = np.asarray(np.log(0.01))
        np.testing.assert_allclose(tiny, self.logits(moe, x))
        assert np.abs(tiny).max() <= 100.0 + 1e-9

    def test_cosine_scale_invariant_in_input(self, rng):
        moe = self.layer(rng, router="cosine")
        x = rng.normal(size=(8, 16))
        np.testing.assert_allclose(self.logits(moe, x),
                                   self.logits(moe, 1000.0 * x), atol=1e-9)

    def test_cosine_rejects_dim_mismatch(self, rng):
        # Expert embeddings of width 5 against an 8-wide projection.
        moe = self.layer(rng, router="cosine")
        moe.expert_embed.data = rng.normal(size=(8, 5))
        with pytest.raises(ValueError):
            self.logits(moe, rng.normal(size=(8, 16)))


class TestComputeLocations:
    def test_sequential_numbering(self):
        idxs = np.array([[0, 0, 1, 0]])
        locs = compute_locations(idxs, num_experts=2)
        np.testing.assert_array_equal(locs, [[0, 1, 0, 2]])

    def test_slots_share_expert_queues(self):
        # Slot 0 fills first; slot 1 continues the same queues.
        idxs = np.array([[0, 1], [1, 0]])
        locs = compute_locations(idxs, num_experts=2)
        np.testing.assert_array_equal(locs, [[0, 0], [1, 1]])

    def test_priority_reorders(self):
        idxs = np.array([[0, 0, 0]])
        priority = np.array([0.1, 0.9, 0.5])
        locs = compute_locations(idxs, 1, priority=priority)
        # Highest priority token gets position 0.
        np.testing.assert_array_equal(locs, [[2, 0, 1]])

    def test_locations_unique_per_expert(self):
        rng = np.random.default_rng(1)
        idxs = rng.integers(0, 4, size=(2, 50))
        locs = compute_locations(idxs, 4)
        for e in range(4):
            cells = locs[idxs == e]
            assert len(np.unique(cells)) == len(cells)

    def test_rejects_bad_priority_shape(self):
        with pytest.raises(ValueError):
            compute_locations(np.zeros((1, 3), dtype=int), 2,
                              priority=np.zeros(4))

    @given(t=st.integers(1, 64), e=st.integers(1, 8), k=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_property_queue_contiguity(self, t, e, k):
        rng = np.random.default_rng(t * 100 + e * 10 + k)
        idxs = rng.integers(0, e, size=(k, t))
        locs = compute_locations(idxs, e)
        for expert in range(e):
            cells = np.sort(locs[idxs == expert])
            np.testing.assert_array_equal(cells, np.arange(len(cells)))


class TestTopKRouting:
    def test_selects_highest_probability(self, rng):
        probs = softmax(rng.normal(size=(32, 8)))
        crit = route(probs, 2, capacity=32).crit
        assert crit.idxs.shape == (2, 32)
        np.testing.assert_array_equal(crit.idxs[0],
                                      probs.argmax(axis=1))

    def test_slots_are_distinct_experts(self, rng):
        probs = softmax(rng.normal(size=(64, 8)))
        crit = route(probs, 3, capacity=64).crit
        assert (crit.idxs[0] != crit.idxs[1]).all()
        assert (crit.idxs[1] != crit.idxs[2]).all()

    def test_normalized_gates_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(16, 4)))
        gates = route(probs, 2, capacity=16).gates
        np.testing.assert_allclose(gates.sum(axis=0), 1.0)

    def test_unnormalized_keeps_raw_probs(self, rng):
        probs = softmax(rng.normal(size=(16, 4)))
        gates = route(probs, 1, capacity=16).gates
        np.testing.assert_allclose(gates[0], probs.max(axis=1))

    def test_top_any_k_equals_e(self, rng):
        probs = softmax(rng.normal(size=(8, 4)))
        crit = route(probs, 4, capacity=8).crit
        assert crit.top_k == 4
        assert set(np.unique(crit.idxs)) == {0, 1, 2, 3}

    def test_capacity_drops_overflow(self):
        # All tokens prefer expert 0; capacity 2 keeps only two.
        probs = np.tile([[0.9, 0.1]], (10, 1))
        crit = route(probs, 1, capacity=2).crit
        assert crit.plan.valid[0].sum() == 2
        assert crit.dropped_fraction() == pytest.approx(0.8)

    def test_dropped_slots_have_zero_gate(self):
        probs = np.tile([[0.9, 0.1]], (10, 1))
        crit = route(probs, 1, capacity=2).crit
        assert (crit.gates[~crit.plan.valid] == 0).all()

    def test_bpr_keeps_confident_tokens(self):
        # Three tokens all route to expert 0 with rising confidence;
        # capacity 1.  BPR keeps the most confident, FIFO keeps first.
        probs = np.array([[0.55, 0.45], [0.75, 0.25], [0.95, 0.05]])
        fifo = route(probs, 1, capacity=1, batch_prioritized=False).crit
        bpr = route(probs, 1, capacity=1, batch_prioritized=True).crit
        assert fifo.plan.valid[0].tolist() == [True, False, False]
        assert bpr.plan.valid[0].tolist() == [False, False, True]

    def test_max_needed_capacity(self, rng):
        probs = softmax(rng.normal(size=(32, 4)))
        crit = route(probs, 2, capacity=64).crit
        counts = np.bincount(crit.idxs.ravel(), minlength=4)
        assert crit.max_needed_capacity() == counts.max()

    def test_rejects_bad_k(self, rng):
        probs = softmax(rng.normal(size=(4, 2)))
        with pytest.raises(ValueError):
            route(probs, 3, capacity=4).crit

    def test_rejects_bad_capacity(self, rng):
        probs = softmax(rng.normal(size=(4, 2)))
        with pytest.raises(ValueError):
            route(probs, 1, capacity=0).crit


class TestRoutingCriteria:
    def test_valid_mask(self):
        crit = RoutingCriteria(
            idxs=np.array([[0, 1]]), locations=np.array([[0, 5]]),
            gates=np.array([[0.5, 0.5]]), capacity=3, num_experts=2)
        np.testing.assert_array_equal(crit.plan.valid, [[True, False]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RoutingCriteria(idxs=np.zeros(3, dtype=int),
                            locations=np.zeros(3, dtype=int),
                            gates=np.zeros(3), capacity=1, num_experts=1)


class TestOccupancy:
    """``occupancy[e]`` = 1 + the largest valid queue position of
    expert ``e`` (0 when idle): the slab prefix the expert FFN runs."""

    @staticmethod
    def oracle(crit):
        rows = [0] * crit.num_experts
        for slot in range(crit.top_k):
            for tok in range(crit.num_tokens):
                loc = int(crit.locations[slot, tok])
                if 0 <= loc < crit.capacity:
                    e = int(crit.idxs[slot, tok])
                    rows[e] = max(rows[e], loc + 1)
        return rows

    @given(t=st.integers(0, 24), e=st.integers(1, 6), k=st.integers(1, 3),
           cap=st.integers(1, 8), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=80, deadline=None)
    def test_hand_built_criteria_with_gaps_and_drops(self, t, e, k, cap,
                                                     seed):
        # Arbitrary locations: gaps in a queue, positions past the
        # capacity, negative (fully dropped) slots.
        rng = np.random.default_rng(seed)
        crit = RoutingCriteria(
            idxs=rng.integers(0, e, size=(k, t)),
            locations=rng.integers(-2, cap + 3, size=(k, t)),
            gates=np.ones((k, t)), capacity=cap, num_experts=e)
        rows = crit.occupancy
        assert rows.shape == (e,)
        assert rows.tolist() == self.oracle(crit)

    def test_gap_is_covered_and_idle_expert_reads_zero(self):
        crit = RoutingCriteria(
            idxs=np.array([[0, 0, 2]]), locations=np.array([[0, 3, 9]]),
            gates=np.ones((1, 3)), capacity=5, num_experts=3)
        # Expert 0 holds rows 0 and 3 -> prefix 4; expert 1 idle;
        # expert 2's only token is past the capacity.
        assert crit.occupancy.tolist() == [4, 0, 0]

    @given(t=st.integers(1, 48), e=st.integers(1, 8), k=st.integers(1, 3),
           cap=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_routed_criteria_occupancy_is_the_kept_count(self, t, e, k,
                                                         cap):
        # compute_locations leaves no gaps, so the prefix holds exactly
        # the kept tokens.
        k = min(k, e)
        rng = np.random.default_rng(t * 1000 + e * 100 + k * 10 + cap)
        crit = route(softmax(rng.normal(size=(t, e))), k,
                     capacity=cap).crit
        kept = np.bincount(crit.idxs[crit.plan.valid], minlength=e)
        np.testing.assert_array_equal(crit.occupancy, kept)

    def test_every_token_to_one_expert(self):
        probs = np.zeros((7, 4))
        probs[:, 2] = 1.0
        crit = route(probs, 1, capacity=5).crit
        assert crit.occupancy.tolist() == [0, 0, 5, 0]


class TestRouterOps:
    """The router's two tape ops against central differences in
    float64: as functions of the logits with the routing decision held,
    and in place in the layer."""

    @pytest.mark.parametrize("k,failed", [(1, ()), (4, ()), (4, (2,)),
                                          (2, (0, 3))])
    def test_gates_and_l_aux_gradcheck(self, k, failed):
        # A failed expert's logit is -1e30, as the layer masks it, and
        # k shrinks to the survivors.
        rng = np.random.default_rng(k + 3 * len(failed))
        t, e = 6, 4
        logits = rng.normal(size=(t, e))
        logits[:, list(failed)] = -1e30
        k = min(k, e - len(failed))
        upstream = rng.normal(size=(k, t))
        with substrate_dtype(np.float64):
            x = Tensor(logits, requires_grad=True)
            probs = taped_softmax(x, axis=1)
            routing = route(probs.data, k, capacity=t)
            ((route_gates(probs, routing) * Tensor(upstream)).sum()
             + route_l_aux(probs, routing) * 0.7).backward()

        def held(z):
            r = Routing(softmax(z, axis=1), routing.order, routing.crit,
                        None)
            return float((r.gates * upstream).sum() + 0.7 * r.l_aux)
        np.testing.assert_allclose(x.grad, numeric_grad(held, logits),
                                   atol=1e-7)
        assert not x.grad[:, list(failed)].any()

    @pytest.mark.parametrize("router", ["linear", "cosine"])
    def test_router_weights_gradcheck_through_the_layer(self, router):
        rng = np.random.default_rng(5)
        with substrate_dtype(np.float64):
            layer = MoE(6, 5, 4, rng, top_k=2, capacity_factor=4.0,
                        router=router, router_dim=5)
            layer.mask_expert(1)
            x, upstream = rng.normal(size=(7, 6)), rng.normal(size=(7, 6))
            weights = ([layer.gate.weight] if router == "linear" else
                       [layer.cosine_proj.weight, layer.expert_embed,
                        layer.log_temperature])

            def loss():
                out, l_aux = layer(Tensor(x))
                return (out * Tensor(upstream)).sum() + l_aux * 0.7
            loss().backward()
            for w in weights:
                def at(value, w=w):
                    saved, w.data = w.data, value
                    try:
                        return float(loss().data)
                    finally:
                        w.data = saved
                np.testing.assert_allclose(
                    w.grad, numeric_grad(at, w.data.copy()), atol=1e-6)


class TestLoadBalanceLoss:
    """route()'s ``l_aux = E * sum_e mean_prob(e) * routed_frac(e)``
    over the top-1 assignments."""

    def test_uniform_routing_gives_one(self):
        t, e = 64, 8
        probs = np.full((t, e), 1.0 / e)
        assert route(probs, 1, t).l_aux == pytest.approx(1.0)

    def test_collapsed_routing_costs_more(self):
        t, e = 64, 8
        probs = np.zeros((t, e))
        probs[:, 0] = 1.0
        assert route(probs, 1, t).l_aux == pytest.approx(e)

    def test_imbalance_increases_loss(self):
        # When the gate concentrates probability on an expert AND the
        # counts follow, the loss exceeds the balanced value of 1.
        t, e = 256, 4
        skewed = np.full((t, e), 0.1 / (e - 1))
        skewed[:, 0] = 0.9
        # The same confidence, each token on its own expert in turn.
        balanced = skewed.copy()
        balanced[np.arange(t), 0] = 0.1 / (e - 1)
        balanced[np.arange(t), np.arange(t) % e] = 0.9
        assert route(skewed, 1, t).l_aux \
            > route(balanced, 1, t).l_aux == pytest.approx(1.0)


class TestRoutingCriteriaShapeRegression:
    def test_gates_shape_mismatch_rejected(self):
        # Regression: the old chained comparison
        # `idxs.shape != locations.shape != gates.shape` evaluated to
        # False whenever idxs and locations agreed, silently accepting
        # a mis-shaped gates array.
        with pytest.raises(ValueError):
            RoutingCriteria(idxs=np.zeros((2, 4), dtype=int),
                            locations=np.zeros((2, 4), dtype=int),
                            gates=np.zeros((2, 5)),
                            capacity=1, num_experts=2)

    def test_locations_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RoutingCriteria(idxs=np.zeros((2, 4), dtype=int),
                            locations=np.zeros((2, 3), dtype=int),
                            gates=np.zeros((2, 4)),
                            capacity=1, num_experts=2)

    def test_matching_shapes_accepted(self):
        crit = RoutingCriteria(idxs=np.zeros((2, 4), dtype=int),
                               locations=np.zeros((2, 4), dtype=int),
                               gates=np.zeros((2, 4)),
                               capacity=1, num_experts=2)
        assert crit.top_k == 2


class TestEmptyBatch:
    def test_load_balance_loss_zero_tokens(self):
        with np.errstate(all="raise"):
            assert route(np.zeros((0, 4)), 2, capacity=4).l_aux == 0.0

    def test_routing_criteria_empty_diagnostics(self):
        crit = RoutingCriteria(idxs=np.zeros((2, 0), dtype=int),
                               locations=np.zeros((2, 0), dtype=int),
                               gates=np.zeros((2, 0)),
                               capacity=4, num_experts=4)
        with np.errstate(all="raise"):
            assert crit.dropped_fraction() == 0.0
            assert crit.max_needed_capacity() == 1

    def test_top_k_routing_empty_batch(self):
        crit = route(np.zeros((0, 4)), top_k=2, capacity=4).crit
        assert crit.idxs.shape == (2, 0)
        assert crit.locations.shape == (2, 0)
        assert crit.dropped_fraction() == 0.0


class TestComputeLocationsRewrite:
    """The sort/cumcount rewrite must match the dense reference exactly."""

    @given(seed=st.integers(0, 500), t=st.integers(0, 48),
           e=st.integers(1, 10), k=st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_batch_order(self, seed, t, e, k):
        rng = np.random.default_rng(seed)
        idxs = rng.integers(0, e, size=(k, t))
        np.testing.assert_array_equal(
            compute_locations(idxs, e),
            compute_locations_reference(idxs, e))

    @given(seed=st.integers(0, 500), t=st.integers(0, 48),
           e=st.integers(1, 10), k=st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_bpr_priority(self, seed, t, e, k):
        rng = np.random.default_rng(seed)
        idxs = rng.integers(0, e, size=(k, t))
        priority = rng.normal(size=t)
        np.testing.assert_array_equal(
            compute_locations(idxs, e, priority=priority),
            compute_locations_reference(idxs, e, priority=priority))

    def test_matches_reference_with_priority_ties(self):
        # Stable tie-breaking: equal priorities must fall back to
        # batch order, matching the reference's stable argsort.
        rng = np.random.default_rng(7)
        idxs = rng.integers(0, 3, size=(2, 20))
        priority = np.repeat([0.5, 0.1], 10)
        np.testing.assert_array_equal(
            compute_locations(idxs, 3, priority=priority),
            compute_locations_reference(idxs, 3, priority=priority))

    def test_matches_real_routing_case(self):
        rng = np.random.default_rng(3)
        probs = softmax(rng.normal(size=(128, 8)))
        for bpr in (False, True):
            crit = route(probs, 2, capacity=8,
                         batch_prioritized=bpr).crit
            priority = probs.max(axis=1) if bpr else None
            np.testing.assert_array_equal(
                crit.locations,
                compute_locations_reference(crit.idxs, 8,
                                            priority=priority))

    def test_dtype_and_empty(self):
        locs = compute_locations(np.zeros((2, 0), dtype=int), 4)
        assert locs.shape == (2, 0)
        assert locs.dtype == np.int64

    def test_faster_than_reference_at_paper_scale(self):
        # Perf regression guard at the paper's scale (T=4096, E=64,
        # k=2).
        import timeit
        rng = np.random.default_rng(0)
        idxs = rng.integers(0, 64, size=(2, 4096))

        def best(fn):
            return min(timeit.repeat(lambda: fn(idxs, 64), number=1,
                                     repeat=5))
        # Best-of-5 comparison; the rewrite is ~20x faster in practice,
        # so a plain "faster" assertion has a wide safety margin.
        assert best(compute_locations) < best(compute_locations_reference)
