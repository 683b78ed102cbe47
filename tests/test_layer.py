"""Tests for the single-process MoE layer (``nn.MoE``) on arrays: its
routing features, its agreement with the dense GShard oracle, and the
expert fflayer kernel it runs."""

from copy import deepcopy

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.core.substrate import substrate_dtype
from repro.moe.capacity import CapacityPolicy
from repro.moe.encode import dense_decode, dense_encode
from repro.moe.ffn import ffn_forward_arrays
from repro.moe.gating import softmax
from repro.nn.moe import MoE, route


@pytest.fixture(autouse=True)
def _float64_substrate():
    with substrate_dtype(np.float64):
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def frozen(rng, num_experts=8, model_dim=16, hidden_dim=32, **kwargs):
    layer = MoE(model_dim, hidden_dim, num_experts, rng, **kwargs)
    layer.freeze()
    return layer


def experts(rng, e, m, v):
    """An ``(E, M, V)`` / ``(E, V, M)`` pair of expert weight stacks."""
    return rng.normal(size=(e, m, v)), rng.normal(size=(e, v, m))


@pytest.fixture
def layer(rng):
    return frozen(rng)


def forward(layer, x, **kwargs):
    out, l_aux = layer(Tensor(x), **kwargs)
    return out.data, float(l_aux.data)


class TestExpertFfn:
    """The layer's expert fflayer is the fused kernel, padded here
    (``rows=None``)."""

    def test_matches_per_expert_loop(self, rng):
        w1, w2 = experts(rng, 3, 8, 16)
        x = rng.normal(size=(3, 5, 8))
        out, _ = ffn_forward_arrays(x, w1, w2, "relu")
        for e in range(3):
            expected = np.maximum(x[e] @ w1[e], 0) @ w2[e]
            np.testing.assert_allclose(out[e], expected)

    def test_gelu_activation(self, rng):
        w1, w2 = experts(rng, 2, 4, 8)
        x = rng.normal(size=(2, 3, 4))
        out_gelu, _ = ffn_forward_arrays(x, w1, w2, "gelu")
        out_relu, _ = ffn_forward_arrays(x, w1, w2, "relu")
        assert not np.allclose(out_gelu, out_relu)

    def test_rejects_expert_mismatch(self, rng):
        # An occupancy naming another expert count than the slab's.
        w1, w2 = experts(rng, 3, 8, 16)
        with pytest.raises(ValueError, match="rows must be 3 ints"):
            ffn_forward_arrays(rng.normal(size=(3, 5, 8)), w1, w2,
                               "gelu", rows=[5, 5])

    def test_rejects_bad_ndim(self, rng):
        w1, w2 = experts(rng, 3, 8, 16)
        with pytest.raises(ValueError):
            ffn_forward_arrays(rng.normal(size=(3, 8)), w1, w2, "gelu")


class TestMoELayerForward:
    def test_output_shape(self, layer, rng):
        out, _ = forward(layer, rng.normal(size=(64, 16)))
        assert out.shape == (64, 16)

    def test_fast_and_dense_paths_agree(self, layer, rng):
        # The dense GShard einsum encode/decode over route()'s decision
        # (the Fairseq data path) gives the sparse layer's numbers, at
        # k = 1 and k > 1, drops included.
        x = rng.normal(size=(64, 16))
        for k in (1, 2):
            fast, _ = forward(layer, x, top_k=k)
            routing = route(softmax(x @ layer.gate.weight.data, axis=1), k,
                            CapacityPolicy(1.0))
            crit = routing.crit.with_gates(routing.gates)
            assert crit.dropped_fraction() > 0
            hidden, _ = ffn_forward_arrays(dense_encode(x, crit),
                                           layer.w1.data, layer.w2.data,
                                           "gelu")
            np.testing.assert_allclose(fast, dense_decode(hidden, crit),
                                       atol=1e-10)

    def test_dynamic_top_k_override(self, layer, rng):
        x = rng.normal(size=(32, 16))
        out1, _ = forward(layer, x, top_k=1)
        assert layer.last_routing_criteria.top_k == 1
        out4, _ = forward(layer, x, top_k=4)
        assert layer.last_routing_criteria.top_k == 4
        assert not np.allclose(out1, out4)

    def test_adaptive_capacity_drops_nothing(self, layer, rng):
        forward(layer, rng.normal(size=(64, 16)), capacity_factor=0.0)
        assert layer.last_routing_stats.dropped_fraction == 0.0

    def test_bounded_adaptive_capacity(self, layer, rng):
        forward(layer, rng.normal(size=(64, 16)), capacity_factor=-1.0)
        assert layer.last_effective_capacity_factor <= 1.0

    def test_small_capacity_drops_tokens(self, layer, rng):
        forward(layer, rng.normal(size=(256, 16)), capacity_factor=0.25)
        assert layer.last_routing_stats.dropped_fraction > 0

    def test_aux_loss_positive(self, layer, rng):
        assert forward(layer, rng.normal(size=(64, 16)))[1] > 0

    def test_l_aux_keeps_the_layer_dtype(self, rng):
        # A float64 layer under a float32 default: 1 / T and E take the
        # layer's dtype, so one expert reads exactly 1.0, trainable or
        # frozen (a float32 1 / 5 made it 1.0000000149).
        trainable = MoE(4, 8, 1, rng, top_k=1)
        x = rng.normal(size=(5, 4))
        for layer in (trainable, frozen(rng, 1, 4, 8, top_k=1)):
            with substrate_dtype(np.float32):
                _, l_aux = layer(Tensor(x, dtype=x.dtype))
            assert l_aux.data.dtype == np.float64
            assert l_aux.data == 1.0

    def test_cosine_router_runs(self, rng):
        layer = frozen(rng, num_experts=4, router="cosine")
        out, _ = forward(layer, rng.normal(size=(32, 16)))
        assert out.shape == (32, 16)

    def test_unknown_router_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown router"):
            frozen(rng, router="mystery")

    def test_rejects_bad_input_ndim(self, layer, rng):
        with pytest.raises(ValueError):
            forward(layer, rng.normal(size=(8, 16, 2)))

    def test_bpr_changes_drops_not_values(self, rng):
        fifo = frozen(rng, num_experts=4, model_dim=8, hidden_dim=16,
                      capacity_factor=0.5)
        bpr = deepcopy(fifo)
        bpr.batch_prioritized = True
        x = rng.normal(size=(128, 8))
        forward(fifo, x)
        forward(bpr, x)
        # Same drop budget, different victims.
        assert fifo.last_routing_stats.dropped_fraction == pytest.approx(
            bpr.last_routing_stats.dropped_fraction, abs=0.05)
        assert (fifo.last_routing_criteria.plan.valid
                != bpr.last_routing_criteria.plan.valid).any()
