"""Tests for the multi-rank functional MoE layer."""

import numpy as np
import pytest

from repro.core.config import MoEConfig
from repro.moe.capacity import CapacityPolicy
from repro.moe.distributed import distributed_moe_forward, expert_exchange
from repro.moe.layer import MoELayerParams, moe_layer_forward
from repro.parallel.functional import p1_forward, p2_forward


def build(world=4, experts_per_gpu=2, tokens=16, model_dim=8,
          hidden=16, top_k=2, f=8.0, seed=0):
    rng = np.random.default_rng(seed)
    cfg = MoEConfig(world_size=world, experts_per_gpu=experts_per_gpu,
                    model_dim=model_dim, hidden_dim=hidden,
                    tokens_per_gpu=tokens, top_k=top_k,
                    capacity_factor=f)
    params = MoELayerParams.init(num_experts=cfg.num_global_experts,
                                 model_dim=model_dim, hidden_dim=hidden,
                                 rng=rng, top_k=top_k)
    xs = [rng.normal(size=(tokens, model_dim)) for _ in range(world)]
    return cfg, params, xs


class TestDistributedForward:
    @pytest.mark.parametrize("world,de", [(2, 1), (2, 2), (4, 2), (8, 1)])
    def test_matches_single_process(self, world, de):
        # With ample capacity nothing is dropped and the distributed
        # data path must agree exactly with the local layer per rank.
        cfg, params, xs = build(world=world, experts_per_gpu=de)
        dist = distributed_moe_forward(xs, params, cfg)
        for r, x in enumerate(xs):
            local = moe_layer_forward(
                x, params, capacity=CapacityPolicy(cfg.capacity_factor))
            np.testing.assert_allclose(dist.outputs[r], local.output,
                                       atol=1e-10)

    def test_capacity_drops_per_source_gpu(self):
        cfg, params, xs = build(world=2, experts_per_gpu=1, tokens=64,
                                top_k=1, f=0.25)
        dist = distributed_moe_forward(xs, params, cfg)
        assert dist.dropped_fraction > 0

    def test_rejects_wrong_rank_count(self):
        cfg, params, xs = build()
        with pytest.raises(ValueError):
            distributed_moe_forward(xs[:-1], params, cfg)

    def test_rejects_expert_mismatch(self):
        cfg, params, xs = build()
        bad_cfg = cfg.with_(experts_per_gpu=1)
        with pytest.raises(ValueError):
            distributed_moe_forward(xs, params, bad_cfg)

    def test_rejects_adaptive_capacity(self):
        # Adaptive (f <= 0) policies must be resolved to a concrete
        # factor before the distributed dispatch; W = E = 4 is legal
        # for all three forwards, so each must refuse for the capacity.
        cfg, params, xs = build(experts_per_gpu=1)
        adaptive = MoEConfig(
            world_size=cfg.world_size,
            experts_per_gpu=cfg.experts_per_gpu,
            model_dim=cfg.model_dim, hidden_dim=cfg.hidden_dim,
            tokens_per_gpu=cfg.tokens_per_gpu, top_k=cfg.top_k,
            capacity_factor=1.0)
        object.__setattr__(adaptive, "capacity_factor", -2.0)
        for forward in (distributed_moe_forward, p1_forward, p2_forward):
            with pytest.raises(ValueError, match="capacity_factor"):
                forward(xs, params, adaptive)

    def test_exchange_rejects_a_mismatched_weight_stack(self):
        _, params, _ = build()
        buffers = [np.zeros((8, 3, 8)) for _ in range(4)]
        with pytest.raises(ValueError, match="weight stack has 4 experts"):
            expert_exchange(buffers, params.experts.w1[:4],
                            params.experts.w2[:4], "gelu")

    def test_aux_loss_averaged(self):
        cfg, params, xs = build()
        dist = distributed_moe_forward(xs, params, cfg)
        assert dist.l_aux > 0
