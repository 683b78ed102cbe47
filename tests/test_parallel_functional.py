"""Tests for the functional P1/P2 executions (zero-cost switching).

The paper's key design property: P1 and P2 share token feeding and
parameter placement semantics, so an iteration may run under either
and produce the same numbers.  These tests assert elementwise
equality between P1, P2 and the single-process reference.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.core.config import MoEConfig
from repro.core.substrate import substrate_dtype
from repro.moe.distributed import distributed_moe_forward
from repro.moe.ffn import ffn_forward_arrays
from repro.nn.moe import MoE
from repro.parallel.functional import (
    ExpertParams,
    gather_zero_slices,
    p1_forward,
    p2_forward,
    shard_expert_columns,
    slice_expert_zero,
)


def build(world=8, experts=2, tokens=16, m=12, v=24, k=1, f=2.0,
          seed=0, activation="gelu", dtype=np.float64):
    rng = np.random.default_rng(seed)
    cfg = MoEConfig(world_size=world, experts_per_gpu=experts / world,
                    model_dim=m, hidden_dim=v, tokens_per_gpu=tokens,
                    top_k=min(k, experts), capacity_factor=f)
    with substrate_dtype(dtype):
        layer = MoE(m, v, experts, rng, top_k=min(k, experts),
                    capacity_factor=f, activation=activation)
    layer.freeze()
    xs = [rng.normal(size=(tokens, m)).astype(dtype) for _ in range(world)]
    return cfg, layer, xs


def expert_params(layer):
    return ExpertParams(layer.w1.data, layer.w2.data)


def reference(layer, x):
    """The single-process layer's own forward on one rank's tokens."""
    return layer(Tensor(x, dtype=x.dtype))[0].data


class TestParameterPlacement:
    def test_column_shards_reconstruct(self):
        # Slot e*r + j holds column shard j of expert e, and the r
        # shards' FFN partials sum to the expert's output (P2's local
        # sum-reduction).
        _, layer, _ = build()
        experts = expert_params(layer)
        shards = shard_expert_columns(experts, 4)
        assert shards.w1.shape == (8, 12, 6) and shards.w2.shape == (8, 6, 12)
        np.testing.assert_array_equal(
            np.concatenate(shards.w1[4:8], axis=1), experts.w1[1])
        np.testing.assert_array_equal(
            np.concatenate(shards.w2[4:8], axis=0), experts.w2[1])
        x = np.random.default_rng(1).normal(size=(2, 5, 12))
        full, _ = ffn_forward_arrays(x, experts.w1, experts.w2, "gelu")
        partials, _ = ffn_forward_arrays(np.repeat(x, 4, axis=0), shards.w1,
                                         shards.w2, "gelu")
        np.testing.assert_allclose(partials.reshape(2, 4, 5, 12).sum(axis=1),
                                   full, atol=1e-12)

    def test_column_shards_reject_indivisible(self):
        _, layer, _ = build(v=10)
        with pytest.raises(ValueError):
            shard_expert_columns(expert_params(layer), 4)

    def test_zero_slices_roundtrip(self):
        _, layer, _ = build()
        experts = expert_params(layer)
        full = gather_zero_slices(slice_expert_zero(experts, 1, 4), experts)
        np.testing.assert_array_equal(full.w1[0], experts.w1[1])
        np.testing.assert_array_equal(full.w2[0], experts.w2[1])
        x = np.random.default_rng(1).normal(size=(1, 5, 12))
        np.testing.assert_array_equal(
            ffn_forward_arrays(x, full.w1, full.w2, "gelu")[0],
            ffn_forward_arrays(x, experts.w1[1:2], experts.w2[1:2],
                               "gelu")[0])

    def test_zero_slices_are_disjoint_and_complete(self):
        _, layer, _ = build()
        slices = slice_expert_zero(expert_params(layer), 0, 3)
        assert sum(s.size for s in slices) \
            == layer.w1.data[0].size + layer.w2.data[0].size


class TestSwitchingEquivalence:
    @pytest.mark.parametrize("world,experts,k", [(4, 2, 1), (8, 2, 1),
                                                 (8, 2, 2), (8, 4, 1),
                                                 (8, 1, 1)])
    def test_p1_equals_p2_equals_reference(self, world, experts, k):
        cfg, layer, xs = build(world=world, experts=experts, k=k)
        ref = [reference(layer, x) for x in xs]
        p1 = p1_forward(xs, layer, cfg)
        p2 = p2_forward(xs, layer, cfg)
        for r in range(world):
            np.testing.assert_allclose(p1[r], ref[r], atol=1e-12)
            np.testing.assert_allclose(p2[r], ref[r], atol=1e-12)
            np.testing.assert_allclose(p1[r], p2[r], atol=1e-12)

    def test_float32_without_biases(self):
        # P1's ZeRO gather keeps a float32 expert float32, so P1, P2
        # and the single-rank layer all compute in float32.
        cfg, layer, xs = build(dtype=np.float32)
        experts = expert_params(layer)
        full = gather_zero_slices(slice_expert_zero(experts, 1, 4), experts)
        assert full.w1.dtype == full.w2.dtype == np.float32
        np.testing.assert_array_equal(full.w1[0], experts.w1[1])
        x = np.ones((1, 3, 12), dtype=np.float32)
        assert ffn_forward_arrays(x, full.w1, full.w2,
                                  "gelu")[0].dtype == np.float32

        p1 = p1_forward(xs, layer, cfg)
        p2 = p2_forward(xs, layer, cfg)
        for r, x in enumerate(xs):
            ref = reference(layer, x)
            assert p1[r].dtype == p2[r].dtype == ref.dtype == np.float32
            np.testing.assert_allclose(p1[r], p2[r], atol=1e-5)
            np.testing.assert_allclose(p1[r], ref, atol=1e-5)

    def test_relu_activation_path(self):
        cfg, layer, xs = build(activation="relu")
        p1 = p1_forward(xs, layer, cfg)
        p2 = p2_forward(xs, layer, cfg)
        for r in range(cfg.world_size):
            np.testing.assert_allclose(p1[r], p2[r], atol=1e-12)

    def test_with_token_dropping(self):
        # Even with capacity truncation both paths agree: the routing
        # (hence the drop set) is computed identically up front.
        cfg, layer, xs = build(f=0.5, tokens=64)
        p1 = p1_forward(xs, layer, cfg)
        p2 = p2_forward(xs, layer, cfg)
        for r in range(cfg.world_size):
            np.testing.assert_allclose(p1[r], p2[r], atol=1e-12)

    def test_p1_requires_divisible_capacity(self):
        # dC = 11 with r = 4 cannot be sub-sliced evenly.
        cfg, layer, xs = build(tokens=11, f=2.0)
        assert cfg.capacity_per_gpu % 4 != 0
        with pytest.raises(ValueError):
            p1_forward(xs, layer, cfg)

    def test_rejects_wrong_world(self):
        cfg, layer, xs = build()
        with pytest.raises(ValueError):
            p2_forward(xs[:-1], layer, cfg)

    @pytest.mark.parametrize("count", [3, 5])
    def test_every_forward_rejects_a_wrong_rank_count_alike(self, count):
        # W = E = 4 is legal for all three; P1 used to drop the fifth
        # input silently and die with an IndexError on three.
        cfg, layer, xs = build(world=4, experts=4)
        inputs = (xs + xs)[:count]
        for forward in (distributed_moe_forward, p1_forward, p2_forward):
            with pytest.raises(ValueError,
                               match=f"expected 4 rank inputs, got {count}"):
                forward(inputs, layer, cfg)

    def test_rejects_expert_mismatch(self):
        cfg, layer, xs = build()
        bad = cfg.with_(experts_per_gpu=0.5)
        for forward in (distributed_moe_forward, p1_forward, p2_forward):
            with pytest.raises(ValueError,
                               match="layer has 2 experts but cfg "
                                     "implies 4"):
                forward(xs, layer, bad)

    def test_each_layout_rejects_the_other_placement(self):
        # Expert parallelism needs whole experts per rank, P1/P2 one
        # expert over r = W / E ranks.
        cfg, layer, xs = build(world=8, experts=2)
        with pytest.raises(ValueError,
                           match="2 experts not divisible across 8 ranks"):
            distributed_moe_forward(xs, layer, cfg)
        cfg, layer, xs = build(world=4, experts=8)
        for forward in (p1_forward, p2_forward):
            with pytest.raises(ValueError,
                               match="P1/P2 need W a multiple of E"):
                forward(xs, layer, cfg)
