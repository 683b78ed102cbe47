"""Tests for dynamic capacity-factor semantics (Figure 16)."""

import numpy as np
import pytest

from repro.core.config import expert_capacity
from repro.moe.capacity import (
    CapacityPolicy,
    needed_capacity,
    needed_capacity_factor,
    resolve_capacity,
)


def skewed_idxs(t=16, e=4):
    """Routing where expert 0 receives half the tokens."""
    idxs = np.zeros((1, t), dtype=int)
    idxs[0, t // 2:] = np.arange(t // 2) % (e - 1) + 1
    return idxs


class TestNeededCapacity:
    def test_longest_queue(self):
        idxs = np.array([[0, 0, 0, 1]])
        assert needed_capacity(idxs, 2) == 3

    def test_counts_all_slots(self):
        idxs = np.array([[0, 1], [0, 1]])
        assert needed_capacity(idxs, 2) == 2

    def test_minimum_one(self):
        assert needed_capacity(np.zeros((1, 0), dtype=int), 4) == 1

    def test_factor_inverts_equation_one(self):
        idxs = skewed_idxs(t=16, e=4)
        f = needed_capacity_factor(idxs, 4, tokens=16)
        cap = expert_capacity(1, f, 16, 4)
        assert cap >= needed_capacity(idxs, 4)

    def test_even_routing_needs_factor_one(self):
        t, e = 16, 4
        idxs = (np.arange(t) % e)[None, :]
        assert needed_capacity_factor(idxs, e, t) == pytest.approx(1.0)


class TestCapacityPolicy:
    def test_positive_not_adaptive(self):
        assert CapacityPolicy(2.0).upper_bound is None

    def test_zero_adaptive_unbounded(self):
        policy = CapacityPolicy(0.0)
        assert policy.upper_bound is None

    def test_negative_adaptive_bounded(self):
        policy = CapacityPolicy(-4.0)
        assert policy.upper_bound == 4.0


class TestResolveCapacity:
    """The three behaviours of Figure 16 (x = 4, 0, -4)."""

    def test_positive_fixed(self):
        idxs = skewed_idxs()
        cap, f = resolve_capacity(CapacityPolicy(4.0), idxs, 4, 16, 1)
        assert f == 4.0
        assert cap == expert_capacity(1, 4.0, 16, 4)

    def test_zero_adapts_to_lossless_minimum(self):
        idxs = skewed_idxs()
        cap, f = resolve_capacity(CapacityPolicy(0.0), idxs, 4, 16, 1)
        assert cap == needed_capacity(idxs, 4)
        # The implied factor reflects the skew (> 1).
        assert f > 1.0

    def test_negative_caps_the_adaptation(self):
        idxs = skewed_idxs()  # needs f = 2 (8 tokens on expert 0 of 16/4)
        cap_unbounded, f_unbounded = resolve_capacity(
            CapacityPolicy(0.0), idxs, 4, 16, 1)
        cap_bounded, f_bounded = resolve_capacity(
            CapacityPolicy(-1.5), idxs, 4, 16, 1)
        assert f_unbounded > 1.5
        assert f_bounded == 1.5
        assert cap_bounded < cap_unbounded

    def test_negative_bound_not_reached_behaves_like_zero(self):
        t, e = 16, 4
        idxs = (np.arange(t) % e)[None, :]  # perfectly even
        cap0, f0 = resolve_capacity(CapacityPolicy(0.0), idxs, e, t, 1)
        capn, fn = resolve_capacity(CapacityPolicy(-8.0), idxs, e, t, 1)
        assert (cap0, f0) == (capn, fn)

    def test_adaptive_never_drops(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            idxs = rng.integers(0, 8, size=(2, 64))
            cap, _ = resolve_capacity(CapacityPolicy(0.0), idxs, 8, 64, 2)
            counts = np.bincount(idxs.ravel(), minlength=8)
            assert cap >= counts.max()
