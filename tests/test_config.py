"""Tests for repro.core.config — Table 2 symbols and Equation (1)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.config import MoEConfig, expert_capacity


class TestExpertCapacity:
    def test_equation_one_exact(self):
        # dC = k * f * T / E  (paper Equation 1)
        assert expert_capacity(2, 1.0, 4096, 8) == 1024

    def test_ceiling_applied(self):
        assert expert_capacity(1, 1.0, 10, 3) == 4  # ceil(10/3)

    def test_minimum_one(self):
        assert expert_capacity(1, 1.0, 1, 1024) == 1

    def test_fractional_factor(self):
        assert expert_capacity(1, 0.625, 4096, 32) == 80

    def test_scales_linearly_with_k(self):
        base = expert_capacity(1, 1.0, 4096, 8)
        assert expert_capacity(4, 1.0, 4096, 8) == 4 * base

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_bad_top_k(self, bad):
        with pytest.raises(ValueError):
            expert_capacity(bad, 1.0, 16, 2)

    def test_rejects_zero_capacity_factor(self):
        with pytest.raises(ValueError):
            expert_capacity(1, 0.0, 16, 2)

    def test_rejects_zero_tokens(self):
        with pytest.raises(ValueError):
            expert_capacity(1, 1.0, 0, 2)

    def test_rejects_zero_experts(self):
        with pytest.raises(ValueError):
            expert_capacity(1, 1.0, 16, 0)

    @given(k=st.integers(1, 8), f=st.floats(0.1, 16.0),
           t=st.integers(1, 100_000), e=st.integers(1, 512))
    def test_capacity_never_drops_even_distribution(self, k, f, t, e):
        cap = expert_capacity(k, f, t, e)
        assert cap >= 1
        if f >= 1.0:
            # With f >= 1, an even routing of k*t slots fits.
            assert cap * e >= k * t * min(f, 1.0) - e  # ceil slack


class TestMoEConfigDerived:
    def test_global_experts(self):
        cfg = MoEConfig(world_size=16, experts_per_gpu=2)
        assert cfg.num_global_experts == 32

    def test_fractional_experts(self):
        cfg = MoEConfig(world_size=8, experts_per_gpu=0.5)
        assert cfg.num_global_experts == 4
        assert cfg.expert_shards == 2

    def test_whole_expert_shards_is_one(self):
        assert MoEConfig(world_size=4, experts_per_gpu=1).expert_shards == 1

    def test_capacity_per_gpu_matches_equation(self):
        cfg = MoEConfig(world_size=8, experts_per_gpu=2,
                        tokens_per_gpu=4096, top_k=2, capacity_factor=1.0)
        assert cfg.capacity_per_gpu == expert_capacity(2, 1.0, 4096, 16)

    def test_global_capacity(self):
        cfg = MoEConfig(world_size=8, experts_per_gpu=1,
                        tokens_per_gpu=1024, top_k=1)
        assert cfg.global_capacity == 8 * cfg.capacity_per_gpu

    def test_figure7_weak_scaling_shape(self):
        # dE=1, tokens/step=16384 per GPU: dC shrinks 16384 -> 8 as the
        # world grows from 1 to 2048 (Figure 7's layout collapse).
        small = MoEConfig(world_size=1, experts_per_gpu=1,
                          tokens_per_gpu=16384, top_k=1)
        large = MoEConfig(world_size=2048, experts_per_gpu=1,
                          tokens_per_gpu=16384, top_k=1)
        assert small.capacity_per_gpu == 16384
        assert large.capacity_per_gpu == 8

    def test_dispatch_bytes(self):
        cfg = MoEConfig(world_size=4, experts_per_gpu=1, model_dim=128,
                        tokens_per_gpu=256, top_k=1, dtype_bytes=2)
        expected = (cfg.num_global_experts * cfg.capacity_per_gpu
                    * 128 * 2)
        assert cfg.dispatch_bytes_per_gpu == expected

    def test_expert_parameter_count(self):
        cfg = MoEConfig(world_size=4, experts_per_gpu=1,
                        model_dim=1024, hidden_dim=4096)
        assert cfg.expert_parameter_count == 2 * 1024 * 4096

    def test_tokens_per_step_global(self):
        cfg = MoEConfig(world_size=4, tokens_per_gpu=100)
        assert cfg.tokens_per_step == 400

    def test_with_override(self):
        cfg = MoEConfig(world_size=8)
        assert cfg.with_(capacity_factor=2.0).capacity_factor == 2.0
        assert cfg.capacity_factor == 1.0  # original unchanged


class TestMoEConfigValidation:
    def test_rejects_zero_world(self):
        with pytest.raises(ValueError):
            MoEConfig(world_size=0)

    def test_rejects_bad_fractional_experts(self):
        with pytest.raises(ValueError):
            MoEConfig(world_size=8, experts_per_gpu=0.3)

    def test_rejects_indivisible_shards(self):
        with pytest.raises(ValueError):
            MoEConfig(world_size=9, experts_per_gpu=0.5)

    def test_rejects_top_k_above_experts(self):
        with pytest.raises(ValueError):
            MoEConfig(world_size=2, experts_per_gpu=1, top_k=3)

    def test_rejects_negative_capacity_factor(self):
        with pytest.raises(ValueError):
            MoEConfig(capacity_factor=-1.0)

    def test_rejects_strange_dtype(self):
        with pytest.raises(ValueError):
            MoEConfig(dtype_bytes=3)

    @given(w=st.integers(1, 64), de=st.sampled_from([0.5, 1, 2, 4]),
           t=st.integers(1, 8192), k=st.integers(1, 2))
    def test_derived_quantities_consistent(self, w, de, t, k):
        if de < 1 and w % round(1 / de) != 0:
            return
        cfg = MoEConfig(world_size=w, experts_per_gpu=de,
                        tokens_per_gpu=t,
                        top_k=min(k, max(1, round(w * de))))
        assert cfg.num_global_experts >= 1
        assert cfg.global_capacity == w * cfg.capacity_per_gpu
        assert cfg.dispatch_bytes_per_gpu > 0
        assert math.isfinite(cfg.dispatch_bytes_per_gpu)
