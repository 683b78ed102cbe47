"""Hypothesis property tests on cross-cutting invariants.

Module-local property tests live next to their units; this file holds
the invariants that span modules: token conservation through the
dispatch/combine pipeline, linearity of the collectives, and cost-model
sanity under arbitrary valid configurations.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.topology import ndv4_topology
from repro.collectives.functional import (
    all_to_all_2dh,
    all_to_all_linear,
    flexible_all_to_all,
)
from repro.collectives.schedule import (
    A2AAlgorithm,
    a2a_time,
    linear_a2a_time,
    twodh_a2a_time,
)
from repro.core.config import MoEConfig
from repro.moe.capacity import needed_capacity_factor
from repro.moe.encode import fast_decode, fast_encode
from repro.moe.gating import compute_locations, softmax, top_k_routing
from repro.moe.metrics import routing_stats


def routing_case(t, e, k, cap, seed):
    rng = np.random.default_rng(seed)
    probs = softmax(rng.normal(size=(t, e)))
    return top_k_routing(probs, k, capacity=cap), rng


class TestTokenConservation:
    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(2, 48), e=st.integers(2, 8),
           k=st.integers(1, 3), cap=st.integers(1, 12),
           seed=st.integers(0, 1000))
    def test_every_valid_route_lands_exactly_once(self, t, e, k, cap,
                                                  seed):
        if k > e:
            return
        crit, rng = routing_case(t, e, k, cap, seed)
        x = np.eye(t, 4) + rng.normal(0, 0.0, (t, 4))
        x = rng.normal(size=(t, 4))
        dispatched = fast_encode(x, crit)
        # Count non-zero capacity cells == number of valid routes
        # (token rows are generically non-zero).
        live = crit.valid & (crit.gates != 0)
        filled = (np.abs(dispatched).sum(axis=2) > 0).sum()
        assert filled == live.sum()

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(2, 48), e=st.integers(2, 8),
           seed=st.integers(0, 1000))
    def test_no_capacity_loss_with_full_capacity(self, t, e, seed):
        crit, rng = routing_case(t, e, 1, t, seed)
        assert crit.dropped_fraction() == 0.0
        # Each expert's queue holds exactly its routed tokens.
        counts = np.bincount(crit.idxs[0], minlength=e)
        assert crit.max_needed_capacity() == counts.max()


class TestDecodeLinearity:
    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(2, 24), e=st.integers(2, 6),
           k=st.integers(1, 2), seed=st.integers(0, 500),
           alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
    def test_decode_linear_in_expert_output(self, t, e, k, seed, alpha,
                                            beta):
        if k > e:
            return
        crit, rng = routing_case(t, e, k, max(1, t // 2), seed)
        z1 = rng.normal(size=(e, crit.capacity, 5))
        z2 = rng.normal(size=(e, crit.capacity, 5))
        lhs = fast_decode(alpha * z1 + beta * z2, crit)
        rhs = alpha * fast_decode(z1, crit) + beta * fast_decode(z2,
                                                                 crit)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(2, 24), e=st.integers(2, 6),
           seed=st.integers(0, 500))
    def test_encode_linear_in_tokens(self, t, e, seed):
        crit, rng = routing_case(t, e, 1, t, seed)
        x1 = rng.normal(size=(t, 5))
        x2 = rng.normal(size=(t, 5))
        lhs = fast_encode(x1 + x2, crit)
        rhs = fast_encode(x1, crit) + fast_encode(x2, crit)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestCollectiveInvariants:
    @settings(max_examples=20, deadline=None)
    @given(nodes=st.integers(1, 3), m=st.sampled_from([2, 4]),
           seed=st.integers(0, 100))
    def test_a2a_conserves_multiset(self, nodes, m, seed):
        n = nodes * m
        rng = np.random.default_rng(seed)
        world = [rng.normal(size=(n, 2)) for _ in range(n)]
        out = all_to_all_2dh(world, gpus_per_node=m)
        before = np.sort(np.concatenate([w.ravel() for w in world]))
        after = np.sort(np.concatenate([o.ravel() for o in out]))
        np.testing.assert_allclose(before, after)

    @settings(max_examples=20, deadline=None)
    @given(w=st.sampled_from([2, 4]), e_mult=st.integers(1, 3),
           dc=st.integers(1, 4), m=st.integers(1, 4),
           seed=st.integers(0, 100))
    def test_flexible_a2a_roundtrip(self, w, e_mult, dc, m, seed):
        e = w * e_mult
        rng = np.random.default_rng(seed)
        world = [rng.normal(size=(e, dc, m)) for _ in range(w)]
        there = flexible_all_to_all(world, 1, 0)
        back = flexible_all_to_all(there, 0, 1)
        for r in range(w):
            np.testing.assert_allclose(back[r], world[r])

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([8, 64, 512]),
           log_bytes=st.integers(10, 28),
           algo=st.sampled_from(list(A2AAlgorithm)))
    def test_latency_positive_and_monotone_in_bytes(self, n, log_bytes,
                                                    algo):
        topo = ndv4_topology(n)
        small = a2a_time(topo, 2.0 ** log_bytes, algo)
        big = a2a_time(topo, 2.0 ** (log_bytes + 2), algo)
        assert 0 < small <= big

    @settings(max_examples=15, deadline=None)
    @given(n=st.sampled_from([64, 256, 1024]),
           log_bytes=st.integers(12, 26))
    def test_someone_always_wins(self, n, log_bytes):
        topo = ndv4_topology(n)
        nbytes = 2.0 ** log_bytes
        assert min(linear_a2a_time(topo, nbytes),
                   twodh_a2a_time(topo, nbytes)) > 0


class TestLocationInvariants:
    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(1, 64), e=st.integers(1, 8),
           k=st.integers(1, 3), seed=st.integers(0, 500))
    def test_priority_is_a_permutation(self, t, e, k, seed):
        rng = np.random.default_rng(seed)
        idxs = rng.integers(0, e, size=(k, t))
        priority = rng.normal(size=t)
        plain = compute_locations(idxs, e)
        prio = compute_locations(idxs, e, priority=priority)
        # BPR permutes queue positions per expert but preserves the
        # multiset of positions.
        for expert in range(e):
            np.testing.assert_array_equal(
                np.sort(plain[idxs == expert]),
                np.sort(prio[idxs == expert]))

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(1, 64), e=st.integers(1, 8),
           k=st.integers(1, 8), cap=st.integers(1, 12),
           bpr=st.booleans(), seed=st.integers(0, 1000))
    def test_figure1_quantity_has_two_equal_implementations(
            self, t, e, k, cap, bpr, seed):
        # The layer's one record (longest queue from the locations)
        # and the adaptive-capacity path (a bincount over the
        # assignments) must agree bit for bit, drops or not.
        probs = softmax(np.random.default_rng(seed).normal(size=(t, e)))
        crit = top_k_routing(probs, min(k, e), capacity=cap,
                             batch_prioritized=bpr)
        assert routing_stats(crit, probs).needed_capacity_factor \
            == needed_capacity_factor(crit.idxs, e, t)


class TestConfigCostSanity:
    @settings(max_examples=25, deadline=None)
    @given(w=st.sampled_from([8, 64, 512]),
           de=st.sampled_from([0.5, 1, 2]),
           t=st.sampled_from([1024, 4096, 16384]),
           f=st.floats(0.25, 16.0), k=st.integers(1, 2))
    def test_moe_step_time_finite_and_positive(self, w, de, t, f, k):
        e = max(1, round(w * de))
        cfg = MoEConfig(world_size=w, experts_per_gpu=de, model_dim=512,
                        hidden_dim=2048, tokens_per_gpu=t,
                        top_k=min(k, e), capacity_factor=f)
        from repro.runtime.plan import TUTEL_FEATURES, moe_step_time
        bd = moe_step_time(cfg, ndv4_topology(w), TUTEL_FEATURES)
        assert np.isfinite(bd.total)
        assert bd.total > 0
        assert bd.compute_only <= bd.total + 1e-12
