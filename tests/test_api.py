"""Tests that the paper's Figure 8 snippet runs against repro.api."""

import numpy as np
import pytest

from repro.api import moe, net
from repro.moe.ffn import ffn_forward_arrays
from repro.moe.layer import ExpertParams


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def expert_ffn(y, experts):
    """The snippet's ``CustomExpert``: the fused expert FFN, padded."""
    return ffn_forward_arrays(y, experts.w1, experts.w2, "gelu")[0]


def custom_moe(x, gate_weight, experts, top_k=2):
    """The paper's Figure 8 custom layer, nearly verbatim."""
    scores = moe.softmax(x @ gate_weight)
    crit, l_aux = moe.top_k_routing(scores, top_k)
    y = moe.fast_encode(x, crit)
    y = net.flex_all2all(y, 1, 0)
    y = expert_ffn(y, experts)          # CustomExpert
    y = net.flex_all2all(y, 0, 1)
    output = moe.fast_decode(y, crit)
    return output, l_aux


class TestFigure8Api:
    def test_snippet_runs(self, rng):
        gate = rng.normal(size=(16, 4))
        experts = ExpertParams.init(4, 16, 32, rng)
        x = rng.normal(size=(64, 16))
        out, l_aux = custom_moe(x, gate, experts)
        assert out.shape == (64, 16)
        assert l_aux > 0

    def test_matches_layer_forward(self, rng):
        # The snippet must agree with the packaged layer.
        from repro.moe.capacity import CapacityPolicy
        from repro.moe.layer import MoELayerParams, moe_layer_forward
        gate = rng.normal(size=(16, 4))
        experts = ExpertParams.init(4, 16, 32, rng)
        x = rng.normal(size=(64, 16))
        out, _ = custom_moe(x, gate, experts)
        params = MoELayerParams(experts=experts, gate_weight=gate,
                                top_k=2, capacity=CapacityPolicy(1.0))
        expected = moe_layer_forward(x, params)
        np.testing.assert_allclose(out, expected.output, atol=1e-10)

    def test_flex_all2all_single_rank_roundtrip(self, rng):
        y = rng.normal(size=(4, 3, 5))
        there = net.flex_all2all(y, 1, 0)
        back = net.flex_all2all(there, 0, 1)
        np.testing.assert_allclose(back, y)

    def test_flex_all2all_world_list(self, rng):
        world = [rng.normal(size=(4, 3, 5)) for _ in range(2)]
        out = net.flex_all2all(world, 1, 0)
        assert len(out) == 2
        assert out[0].shape == (2, 6, 5)

    def test_top_k_routing_capacity_semantics(self, rng):
        scores = moe.softmax(rng.normal(size=(64, 8)))
        crit, _ = moe.top_k_routing(scores, 2, capacity_factor=0.0)
        assert crit.dropped_fraction() == 0.0
        crit, _ = moe.top_k_routing(scores, 2, capacity_factor=0.25)
        assert crit.dropped_fraction() > 0.0
