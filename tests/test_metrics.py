"""Tests for the routing diagnostics."""

import dataclasses

import numpy as np
import pytest

from repro.moe.gating import RoutingCriteria, softmax
from repro.moe.metrics import (
    RoutingStats,
    expert_load,
    load_gini,
    load_imbalance,
    routing_entropy,
    routing_stats,
)
from repro.nn.moe import route


def balanced_crit(t=32, e=4):
    """Deterministic perfectly balanced top-1 routing."""
    probs = np.zeros((t, e))
    probs[np.arange(t), np.arange(t) % e] = 1.0
    return route(probs, 1, capacity=t).crit


def collapsed_crit(t=32, e=4):
    probs = np.zeros((t, e))
    probs[:, 0] = 1.0
    return route(probs, 1, capacity=t).crit


class TestExpertLoad:
    def test_balanced_counts(self):
        load = expert_load(balanced_crit())
        np.testing.assert_array_equal(load, [8, 8, 8, 8])

    def test_collapsed_counts(self):
        load = expert_load(collapsed_crit())
        np.testing.assert_array_equal(load, [32, 0, 0, 0])

    def test_top_k_counts_all_slots(self):
        rng = np.random.default_rng(0)
        probs = softmax(rng.normal(size=(16, 4)))
        crit = route(probs, 2, capacity=16).crit
        assert expert_load(crit).sum() == 32

    def test_survivors_only(self):
        # All 32 tokens want expert 0 but only 4 fit its capacity.
        tight = route(np.tile([[0.9, 0.1, 0.0, 0.0]], (32, 1)),
                      1, capacity=4).crit
        # The experts process the survivors (the occupancy); the load
        # counts every routed slot.
        assert tight.occupancy.sum() == 4
        assert expert_load(tight).sum() == 32


class TestImbalanceAndEntropy:
    def test_balanced_imbalance_is_one(self):
        assert load_imbalance(balanced_crit()) == pytest.approx(1.0)

    def test_collapsed_imbalance_is_e(self):
        assert load_imbalance(collapsed_crit()) == pytest.approx(4.0)

    def test_balanced_entropy_is_one(self):
        assert routing_entropy(balanced_crit()) == pytest.approx(1.0)

    def test_collapsed_entropy_is_zero(self):
        assert routing_entropy(collapsed_crit()) == pytest.approx(0.0)

    def test_unnormalized_entropy(self):
        # Normalized is the raw Shannon entropy over log(E).
        crit = route(np.tile([[0.9, 0.1, 0.0, 0.0]], (32, 1)), 2,
                     capacity=32).crit
        share = expert_load(crit) / expert_load(crit).sum()
        share = share[share > 0]
        raw = -(share * np.log(share)).sum()
        assert routing_entropy(crit) == pytest.approx(raw / np.log(4))

    def test_imbalance_equals_needed_f_for_top1(self):
        # The needed capacity factor of Figure 1 is exactly the
        # max/mean load ratio under top-1 routing.
        rng = np.random.default_rng(1)
        probs = softmax(rng.normal(size=(64, 8)) * 2)
        crit = route(probs, 1, capacity=64).crit
        from repro.moe.capacity import needed_capacity_factor
        f = needed_capacity_factor(crit.idxs, 8, 64)
        assert load_imbalance(crit) == pytest.approx(f)


class TestRoutingStats:
    def test_full_summary(self):
        rng = np.random.default_rng(2)
        probs = softmax(rng.normal(size=(48, 6)))
        crit = route(probs, 2, capacity=8).crit
        stats = routing_stats(crit, gate_probs=probs)
        assert isinstance(stats, RoutingStats)
        assert stats.num_tokens == 48
        assert stats.top_k == 2
        assert 0 <= stats.dropped_fraction <= 1
        assert stats.load_imbalance >= 1.0
        assert 0 <= stats.routing_entropy <= 1.0
        assert stats.mean_top1_confidence == pytest.approx(
            probs.max(axis=1).mean())

    def test_without_gate_probs(self):
        crit = balanced_crit()
        stats = routing_stats(crit)
        assert stats.mean_top1_confidence > 0

    def test_load_counted_once_and_equal_to_standalone(self, monkeypatch):
        from repro.moe import metrics

        rng = np.random.default_rng(3)
        crit = route(softmax(rng.normal(size=(40, 5))), 2,
                     capacity=6).crit
        want = (load_imbalance(crit), routing_entropy(crit),
                tuple(expert_load(crit).tolist()))
        calls = []
        real = metrics.expert_load
        monkeypatch.setattr(
            metrics, "expert_load",
            lambda *a, **k: calls.append(a) or real(*a, **k))
        stats = routing_stats(crit)
        assert len(calls) == 1
        assert (stats.load_imbalance, stats.routing_entropy,
                stats.expert_load) == want

    def test_rejects_bad_probs_shape(self):
        crit = balanced_crit()
        with pytest.raises(ValueError):
            routing_stats(crit, gate_probs=np.zeros((3, 3)))


class TestLoadGini:
    def test_uniform_load_is_zero(self):
        assert load_gini(np.array([8, 8, 8, 8])) == pytest.approx(0.0)

    def test_collapsed_load_approaches_one(self):
        # One expert takes everything: Gini = 1 - 1/E.
        assert load_gini(np.array([32, 0, 0, 0])) == pytest.approx(0.75)

    def test_monotone_in_skew(self):
        mild = load_gini(np.array([10, 8, 8, 6]))
        harsh = load_gini(np.array([20, 8, 4, 0]))
        assert 0.0 < mild < harsh < 1.0

    def test_degenerate_inputs_defined(self):
        with np.errstate(all="raise"):
            assert load_gini(np.array([])) == 0.0
            assert load_gini(np.array([5])) == 0.0      # single expert
            assert load_gini(np.zeros(8)) == 0.0        # zero tokens

    def test_scale_invariant(self):
        load = np.array([3, 1, 5, 7], dtype=float)
        assert load_gini(load) == pytest.approx(load_gini(load * 100))

    def test_stats_carry_health_fields(self):
        crit = collapsed_crit()
        stats = routing_stats(crit)
        assert stats.expert_load == (32, 0, 0, 0)
        assert stats.load_gini == pytest.approx(0.75)
        # top-1, all tokens on one of 4 experts: needs f = E = 4
        assert stats.needed_capacity_factor == pytest.approx(4.0)

    def test_single_expert_entropy_is_uniform(self):
        # One expert *is* uniform usage; the 0/log(1) division must
        # never be evaluated.
        probs = np.ones((16, 1))
        crit = route(probs, 1, capacity=16).crit
        with np.errstate(all="raise"):
            assert routing_entropy(crit) == 1.0
            stats = routing_stats(crit)
        assert stats.load_gini == 0.0


class TestEmptyBatchStats:
    def _empty_crit(self, e=4, k=2):
        return route(np.zeros((0, e)), top_k=k, capacity=4).crit

    def test_routing_stats_defined_for_zero_tokens(self):
        crit = self._empty_crit()
        with np.errstate(all="raise"):
            stats = routing_stats(crit)
        assert stats.num_tokens == 0
        assert stats.dropped_fraction == 0.0
        assert stats.load_imbalance == 1.0
        assert stats.routing_entropy == 0.0
        assert stats.needed_capacity == 1
        assert stats.mean_top1_confidence == 0.0

    def test_routing_stats_with_empty_gate_probs(self):
        crit = self._empty_crit(e=4)
        with np.errstate(all="raise"):
            stats = routing_stats(crit, gate_probs=np.zeros((0, 4)))
        assert stats.mean_top1_confidence == 0.0

    def test_load_imbalance_zero_tokens(self):
        with np.errstate(all="raise"):
            assert load_imbalance(self._empty_crit()) == 1.0

    def test_expert_load_zero_tokens(self):
        load = expert_load(self._empty_crit(e=4))
        np.testing.assert_array_equal(load, np.zeros(4, dtype=load.dtype))

    def test_gini_and_capacity_factor_zero_tokens(self):
        with np.errstate(all="raise"):
            stats = routing_stats(self._empty_crit())
        assert stats.load_gini == 0.0
        assert stats.needed_capacity_factor == 0.0  # documented: empty
        assert stats.expert_load == (0, 0, 0, 0)


def _reference_stats(crit, gate_probs=None) -> dict:
    """The routing_stats formulas as they stood before the one-load
    rewrite (a float64 copy of the load per statistic, np.mean), kept
    here as the oracle the rewrite must match bit for bit."""
    if crit.num_tokens == 0:
        confidence = 0.0
    elif gate_probs is not None:
        confidence = float(gate_probs.max(axis=1).mean())
    else:
        confidence = float(crit.gates.max(axis=0).mean())
    load = np.bincount(crit.idxs.reshape(-1), minlength=crit.num_experts)
    f64 = load.astype(np.float64)
    imbalance = 1.0 if f64.mean() == 0 else float(f64.max() / f64.mean())
    total = f64.sum()
    if total == 0:
        entropy = 0.0
    else:
        p = f64 / total
        nz = p[p > 0]
        entropy = float(-(nz * np.log(nz)).sum())
        entropy = (1.0 if crit.num_experts <= 1
                   else entropy / np.log(crit.num_experts))
    n = f64.size
    if n <= 1 or total <= 0:
        gini = 0.0
    else:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        gini = float((2.0 * (ranks * np.sort(f64)).sum() - (n + 1) * total)
                     / (n * total))
    return {
        "num_tokens": crit.num_tokens, "num_experts": crit.num_experts,
        "top_k": crit.top_k, "capacity": crit.capacity,
        "dropped_fraction": (0.0 if crit.locations.size == 0
                             else 1.0 - float(crit.plan.valid.mean())),
        "load_imbalance": imbalance, "routing_entropy": entropy,
        "needed_capacity": (1 if crit.locations.size == 0
                            else int(crit.locations.max()) + 1),
        "mean_top1_confidence": confidence,
        "expert_load": tuple(int(c) for c in load), "load_gini": gini}


def _hostile_crits():
    """(name, crit, gate probs): a random routing at both float widths,
    every slot dropped, one expert taking everything, and E = 1."""
    rng = np.random.default_rng(7)
    for dtype in (np.float32, np.float64):
        probs = softmax(rng.normal(size=(37, 6)) * 3).astype(dtype)
        yield (f"random-{np.dtype(dtype).name}",
               route(probs, 2, capacity=5).crit, probs)
    idxs = rng.integers(0, 4, size=(2, 9))
    yield ("all-dropped",
           RoutingCriteria(idxs=idxs, locations=np.full((2, 9), 3),
                           gates=np.zeros((2, 9)), capacity=3,
                           num_experts=4), None)
    probs = np.tile([0.7, 0.1, 0.1, 0.1], (12, 1))
    yield "one-expert", route(probs, 1, capacity=4).crit, probs
    probs = np.ones((5, 1))
    yield "single-expert", route(probs, 1, capacity=5).crit, probs


def _public_fields(stats) -> dict:
    """Every public field of a summary, the lazy ones included, read as
    attributes (``vars`` holds only what has been computed)."""
    names = [f.name for f in dataclasses.fields(stats)
             if not f.name.startswith("_")]
    return {n: getattr(stats, n) for n in names + list(stats.LAZY)}


def _assert_matches_reference(stats, crit, gate_probs):
    got = _public_fields(stats)
    want = _reference_stats(crit, gate_probs)
    assert got.keys() == want.keys()
    for field, value in want.items():
        if isinstance(value, float):
            assert float(got[field]).hex() == float(value).hex(), field
        else:
            assert got[field] == value, field


class TestRoutingStatsFields:
    @pytest.mark.parametrize("name,crit,probs", list(_hostile_crits()))
    def test_fields_are_plain_python(self, name, crit, probs):
        for gate_probs in (probs, None):
            stats = routing_stats(crit, gate_probs)
            for field, value in _public_fields(stats).items():
                assert type(value) in (int, float, tuple), (field, value)
            assert all(type(n) is int for n in stats.expert_load)

    @pytest.mark.parametrize("name,crit,probs", list(_hostile_crits()))
    def test_fields_equal_the_reference_formulas(self, name, crit, probs):
        for gate_probs in (probs, None):
            _assert_matches_reference(routing_stats(crit, gate_probs),
                                      crit, gate_probs)

    @pytest.mark.parametrize("name,crit,probs", list(_hostile_crits()))
    def test_lazy_fields_wait_for_a_read_and_are_kept(self, name, crit,
                                                      probs):
        stats = routing_stats(crit, probs)
        assert not set(stats.LAZY) & set(vars(stats))
        first = [getattr(stats, n) for n in stats.LAZY]
        assert set(stats.LAZY) <= set(vars(stats))
        assert [getattr(stats, n) for n in stats.LAZY] == first
        # Equality reads the lazy fields too.
        assert stats == routing_stats(crit, probs)
        if probs is not None and crit.num_tokens:
            other = probs.copy()
            other[0] = np.roll(other[0], 1) * 0.5
            assert stats != routing_stats(crit, other)

    @pytest.mark.parametrize("name,crit,probs", list(_hostile_crits()))
    def test_gates_reassigned_after_the_summary_change_nothing(
            self, name, crit, probs):
        crit = dataclasses.replace(crit)
        stats, want = routing_stats(crit), _reference_stats(crit)
        crit.gates = np.ones_like(crit.gates)
        assert _public_fields(stats) == want

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_read_after_a_taped_step_matches_the_reference(self,
                                                           activation):
        # The summary holds the forward's softmax output: a backward
        # through it and an Adam step over the layer must leave what the
        # lazy fields read unchanged.
        from repro.autograd.optim import Adam
        from repro.autograd.tensor import Tensor
        from repro.nn.moe import MoE

        rng = np.random.default_rng(11)
        layer = MoE(12, 24, num_experts=6, top_k=2, capacity_factor=0.75,
                    activation=activation, rng=rng)
        opt = Adam(list(layer.parameters()), lr=0.05)
        x = Tensor(rng.normal(size=(40, 12)), requires_grad=True)
        out, l_aux = layer(x)
        stats, crit = layer.last_routing_stats, layer.last_routing_criteria
        probs = stats._top1_of.T.copy()
        ((out * out).sum() + l_aux).backward()
        opt.step()
        _assert_matches_reference(stats, crit, probs)
