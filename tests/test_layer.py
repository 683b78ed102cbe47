"""Tests for the functional single-process MoE layer."""

import numpy as np
import pytest

from repro.moe.capacity import CapacityPolicy
from repro.moe.ffn import ffn_forward_arrays
from repro.moe.layer import (
    ExpertParams,
    MoELayerParams,
    moe_layer_forward,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def params(rng):
    return MoELayerParams.init(num_experts=8, model_dim=16,
                               hidden_dim=32, rng=rng)


class TestExpertParams:
    def test_init_shapes(self, rng):
        p = ExpertParams.init(4, 8, 16, rng)
        assert p.w1.shape == (4, 8, 16)
        assert p.w2.shape == (4, 16, 8)
        assert p.num_experts == 4
        assert p.model_dim == 8
        assert p.hidden_dim == 16

    def test_rejects_incompatible_w2(self, rng):
        with pytest.raises(ValueError):
            ExpertParams(w1=rng.normal(size=(2, 4, 8)),
                         w2=rng.normal(size=(2, 4, 8)))


class TestExpertFfn:
    """The layer's expert fflayer is the fused kernel, padded here
    (``rows=None``)."""

    def test_matches_per_expert_loop(self, rng):
        p = ExpertParams.init(3, 8, 16, rng)
        x = rng.normal(size=(3, 5, 8))
        out, _ = ffn_forward_arrays(x, p.w1, p.w2, "relu")
        for e in range(3):
            expected = np.maximum(x[e] @ p.w1[e], 0) @ p.w2[e]
            np.testing.assert_allclose(out[e], expected)

    def test_gelu_activation(self, rng):
        p = ExpertParams.init(2, 4, 8, rng)
        x = rng.normal(size=(2, 3, 4))
        out_gelu, _ = ffn_forward_arrays(x, p.w1, p.w2, "gelu")
        out_relu, _ = ffn_forward_arrays(x, p.w1, p.w2, "relu")
        assert not np.allclose(out_gelu, out_relu)

    def test_rejects_expert_mismatch(self, rng):
        # An occupancy naming another expert count than the slab's.
        p = ExpertParams.init(3, 8, 16, rng)
        with pytest.raises(ValueError, match="rows must be 3 ints"):
            ffn_forward_arrays(rng.normal(size=(3, 5, 8)), p.w1, p.w2,
                               "gelu", rows=[5, 5])

    def test_rejects_bad_ndim(self, rng):
        p = ExpertParams.init(3, 8, 16, rng)
        with pytest.raises(ValueError):
            ffn_forward_arrays(rng.normal(size=(3, 8)), p.w1, p.w2, "gelu")


class TestMoELayerForward:
    def test_output_shape(self, params, rng):
        x = rng.normal(size=(64, 16))
        out = moe_layer_forward(x, params)
        assert out.output.shape == (64, 16)

    def test_fast_and_dense_paths_agree(self, params, rng):
        x = rng.normal(size=(64, 16))
        fast = moe_layer_forward(x, params)
        import dataclasses
        dense_params = dataclasses.replace(params, use_fast_encode=False)
        dense = moe_layer_forward(x, dense_params)
        np.testing.assert_allclose(fast.output, dense.output)

    def test_dynamic_top_k_override(self, params, rng):
        x = rng.normal(size=(32, 16))
        out1 = moe_layer_forward(x, params, top_k=1)
        out4 = moe_layer_forward(x, params, top_k=4)
        assert out1.crit.top_k == 1
        assert out4.crit.top_k == 4
        assert not np.allclose(out1.output, out4.output)

    def test_adaptive_capacity_drops_nothing(self, params, rng):
        x = rng.normal(size=(64, 16))
        out = moe_layer_forward(x, params,
                                capacity=CapacityPolicy(0.0))
        assert out.dropped_fraction == 0.0

    def test_bounded_adaptive_capacity(self, params, rng):
        import dataclasses
        x = rng.normal(size=(64, 16))
        bounded = moe_layer_forward(x, params,
                                    capacity=CapacityPolicy(-1.0))
        assert bounded.effective_capacity_factor <= 1.0

    def test_small_capacity_drops_tokens(self, params, rng):
        x = rng.normal(size=(256, 16))
        out = moe_layer_forward(x, params,
                                capacity=CapacityPolicy(0.25))
        assert out.dropped_fraction > 0

    def test_aux_loss_positive(self, params, rng):
        x = rng.normal(size=(64, 16))
        assert moe_layer_forward(x, params).l_aux > 0

    def test_cosine_router_runs(self, rng):
        params = MoELayerParams.init(num_experts=4, model_dim=16,
                                     hidden_dim=32, rng=rng,
                                     router="cosine")
        x = rng.normal(size=(32, 16))
        out = moe_layer_forward(x, params)
        assert out.output.shape == (32, 16)

    def test_cosine_router_requires_params(self, params, rng):
        import dataclasses
        bad = dataclasses.replace(params, router="cosine")
        with pytest.raises(ValueError):
            moe_layer_forward(rng.normal(size=(8, 16)), bad)

    def test_unknown_router_rejected(self, params, rng):
        import dataclasses
        bad = dataclasses.replace(params, router="mystery")
        with pytest.raises(ValueError):
            moe_layer_forward(rng.normal(size=(8, 16)), bad)

    def test_rejects_bad_input_ndim(self, params, rng):
        with pytest.raises(ValueError):
            moe_layer_forward(rng.normal(size=(8, 16, 2)), params)

    def test_bpr_changes_drops_not_values(self, rng):
        import dataclasses
        params = MoELayerParams.init(num_experts=4, model_dim=8,
                                     hidden_dim=16, rng=rng)
        bpr = dataclasses.replace(params, batch_prioritized=True)
        x = rng.normal(size=(128, 8))
        tight = CapacityPolicy(0.5)
        out_fifo = moe_layer_forward(x, params, capacity=tight)
        out_bpr = moe_layer_forward(x, bpr, capacity=tight)
        # Same drop budget, different victims.
        assert out_fifo.dropped_fraction == pytest.approx(
            out_bpr.dropped_fraction, abs=0.05)
        surviving_fifo = out_fifo.crit.valid
        surviving_bpr = out_bpr.crit.valid
        assert (surviving_fifo != surviving_bpr).any()
