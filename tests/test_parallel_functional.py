"""Tests for the functional P1/P2 executions (zero-cost switching).

The paper's key design property: P1 and P2 share token feeding and
parameter placement, so an iteration may run under either, switch
without moving a parameter, and produce the same numbers.  These tests
assert the one placement and elementwise equality between P1, P2 and
the single-process reference.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.collectives.functional import all_gather
from repro.core.config import MoEConfig
from repro.core.substrate import substrate_dtype
from repro.moe.distributed import distributed_moe_forward, expert_exchange
from repro.moe.ffn import ffn_forward_arrays
from repro.nn.moe import MoE
from repro.parallel import functional
from repro.parallel.functional import column_shards, p1_forward, p2_forward
from repro.parallel.strategy import p1_communication_bytes


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


def reference(layer, x):
    """The single-process layer's own forward on one rank's tokens."""
    return layer(Tensor(x, dtype=x.dtype))[0].data


class TestParameterPlacement:
    def test_column_shards_reconstruct(self):
        # Rank e*r + j holds column shard j of expert e, as views of the
        # layer's weights, and the r shards' FFN partials sum to the
        # expert's output (P2's local sum-reduction).
        _, layer, _ = build()
        w1, w2 = layer.w1.data, layer.w2.data
        shards = column_shards(w1, w2, 4)
        assert len(shards) == 8
        assert all(s1.shape == (1, 12, 6) and s2.shape == (1, 6, 12)
                   and np.shares_memory(s1, w1) and np.shares_memory(s2, w2)
                   for s1, s2 in shards)
        np.testing.assert_array_equal(
            np.concatenate([s1 for s1, _ in shards[4:8]], axis=2), w1[1:2])
        np.testing.assert_array_equal(
            np.concatenate([s2 for _, s2 in shards[4:8]], axis=1), w2[1:2])
        x = np.random.default_rng(1).normal(size=(1, 5, 12))
        full, _ = ffn_forward_arrays(x, w1[1:2], w2[1:2], "gelu")
        partials = sum(ffn_forward_arrays(x, s1, s2, "gelu")[0]
                       for s1, s2 in shards[4:8])
        np.testing.assert_allclose(partials, full, atol=1e-12)

    def test_column_shards_reject_indivisible(self):
        _, layer, _ = build(v=10)
        with pytest.raises(ValueError):
            column_shards(layer.w1.data, layer.w2.data, 4)

    @pytest.mark.parametrize("shards", [0, -1])
    def test_column_shards_reject_nonpositive(self, shards):
        _, layer, _ = build()
        with pytest.raises(ValueError, match="shards must be >= 1"):
            column_shards(layer.w1.data, layer.w2.data, shards)

    def test_switching_moves_no_parameter(self, monkeypatch):
        # P1 -> P2 -> P1 on one layer: P2 computes on views of the
        # layer's weights, P1 on exactly what its all-gather of those
        # same views returns, so a switch moves no parameter.
        cfg, layer, xs = build()
        w1, w2 = layer.w1.data, layer.w2.data
        weight_bytes = w1.tobytes() + w2.tobytes()
        handed, gathered = [], []

        def exchange(buffers, weights, activation):
            handed.append(weights)
            return expert_exchange(buffers, weights, activation)

        def gather(inputs):
            gathered.append((inputs, all_gather(inputs)))
            return gathered[-1][1]

        monkeypatch.setattr(functional, "expert_exchange", exchange)
        monkeypatch.setattr(functional, "all_gather", gather)
        first = p1_forward(xs, layer, cfg)
        p2_forward(xs, layer, cfg)
        again = p1_forward(xs, layer, cfg)

        p1_weights, p2_weights, _ = handed
        assert all(np.shares_memory(s1, w1) and np.shares_memory(s2, w2)
                   for s1, s2 in p2_weights)
        # Each P1 call gathers w1 then w2 for each of the E = 2 groups.
        calls = gathered[:4]
        assert all(np.shares_memory(shard, w)
                   for (inputs, _), w in zip(calls, (w1, w2, w1, w2))
                   for shard in inputs)
        outs = [(calls[2 * g][1][j], calls[2 * g + 1][1][j])
                for g in range(2) for j in range(4)]
        for (s1, s2), (g1, g2) in zip(p1_weights, outs):
            assert np.shares_memory(s1, g1) and np.shares_memory(s2, g2)
            np.testing.assert_array_equal(s1[0].T, g1)
            np.testing.assert_array_equal(s2[0], g2)
        assert layer.w1.data is w1 and layer.w2.data is w2
        assert w1.tobytes() + w2.tobytes() == weight_bytes
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))

    @pytest.mark.parametrize("r", [2, 4, 8])
    def test_p1_gather_moves_the_priced_bytes(self, r, monkeypatch):
        # What each P1 rank receives from its r - 1 peers is what
        # p1_communication_bytes prices for the parameter all-gather.
        cfg, layer, xs = build(world=2 * r)
        cfg = cfg.with_(dtype_bytes=layer.w1.data.itemsize)
        calls = []

        def gather(inputs):
            calls.append(inputs)
            return all_gather(inputs)

        monkeypatch.setattr(functional, "all_gather", gather)
        p1_forward(xs, layer, cfg)
        assert len(calls) == 4
        received = [sum(shard.nbytes for w in calls[2 * g:2 * g + 2]
                        for i, shard in enumerate(w) if i != j)
                    for g in range(2) for j in range(r)]
        assert received == [p1_communication_bytes(cfg)[1]] * (2 * r)


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
        # P1's all-gather keeps a float32 expert float32, so P1, P2
        # and the single-rank layer all compute in float32.
        cfg, layer, xs = build(dtype=np.float32)
        w1, w2 = layer.w1.data, layer.w2.data
        group = column_shards(w1, w2, 4)[4:8]
        full1 = all_gather([s1[0].T for s1, _ in group])[0].T[None]
        full2 = all_gather([s2[0] for _, s2 in group])[0][None]
        assert full1.dtype == full2.dtype == np.float32
        np.testing.assert_array_equal(full1, w1[1:2])
        np.testing.assert_array_equal(full2, w2[1:2])
        x = np.ones((1, 3, 12), dtype=np.float32)
        assert ffn_forward_arrays(x, full1, full2,
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

    def test_p1_requires_divisible_capacity(self, monkeypatch):
        # dC = 11 with r = 4 cannot be sub-sliced evenly (P1), nor V = 10
        # column-sharded (P1 and P2); either is refused before any rank
        # routes.
        cfg, layer, xs = build(tokens=11, f=2.0)
        assert cfg.capacity_per_gpu % 4 != 0
        cases = [(cfg, layer, xs, "capacity dC=11", (p1_forward,)),
                 (*build(v=10), "hidden dim 10", (p1_forward, p2_forward))]
        # Routing is unreachable: a check made after it would not raise
        # ValueError.
        monkeypatch.setattr(functional, "route_and_encode", None)
        for cfg, layer, xs, match, forwards in cases:
            for forward in forwards:
                with pytest.raises(ValueError, match=match):
                    forward(xs, layer, cfg)

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
