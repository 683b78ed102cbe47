"""Tests for the multi-rank functional MoE layer."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.core.config import MoEConfig
from repro.core.substrate import substrate_dtype
from repro.moe.distributed import distributed_moe_forward, expert_exchange
from repro.nn.moe import MoE
from repro.parallel.functional import p1_forward, p2_forward


def build(world=4, experts_per_gpu=2, tokens=16, model_dim=8,
          hidden=16, top_k=2, f=8.0, seed=0, router="linear"):
    rng = np.random.default_rng(seed)
    cfg = MoEConfig(world_size=world, experts_per_gpu=experts_per_gpu,
                    model_dim=model_dim, hidden_dim=hidden,
                    tokens_per_gpu=tokens, top_k=top_k,
                    capacity_factor=f)
    with substrate_dtype(np.float64):
        layer = MoE(model_dim, hidden, cfg.num_global_experts, rng,
                    top_k=top_k, capacity_factor=f, router=router)
    layer.freeze()
    xs = [rng.normal(size=(tokens, model_dim)) for _ in range(world)]
    return cfg, layer, xs


class TestDistributedForward:
    @pytest.mark.parametrize("world,de", [(2, 1), (2, 2), (4, 2), (8, 1)])
    def test_matches_single_process(self, world, de):
        # With ample capacity nothing is dropped and the distributed
        # data path must agree exactly with the local layer per rank.
        self.check_matches(*build(world=world, experts_per_gpu=de))

    def test_cosine_router_matches_single_process(self):
        # Every rank routes with the layer's own (cosine) router.
        self.check_matches(*build(router="cosine"))

    @staticmethod
    def check_matches(cfg, layer, xs):
        dist = distributed_moe_forward(xs, layer, cfg)
        for r, x in enumerate(xs):
            local, _ = layer(Tensor(x, dtype=x.dtype))
            np.testing.assert_allclose(dist.outputs[r], local.data,
                                       atol=1e-10)

    def test_capacity_drops_per_source_gpu(self):
        cfg, layer, xs = build(world=2, experts_per_gpu=1, tokens=64,
                               top_k=1, f=0.25)
        dist = distributed_moe_forward(xs, layer, cfg)
        assert dist.dropped_fraction > 0

    def test_rejects_a_layer_with_masked_experts(self):
        cfg, layer, xs = build()
        layer.mask_expert(3)
        for forward in (distributed_moe_forward, p1_forward, p2_forward):
            with pytest.raises(ValueError, match=r"masks experts \[3\]"):
                forward(xs, layer, cfg)

    def test_rejects_wrong_rank_count(self):
        cfg, layer, xs = build()
        with pytest.raises(ValueError):
            distributed_moe_forward(xs[:-1], layer, cfg)

    def test_rejects_expert_mismatch(self):
        cfg, layer, xs = build()
        bad_cfg = cfg.with_(experts_per_gpu=1)
        with pytest.raises(ValueError):
            distributed_moe_forward(xs, layer, bad_cfg)

    def test_rejects_adaptive_capacity(self):
        # Adaptive (f <= 0) policies must be resolved to a concrete
        # factor before the distributed dispatch; W = E = 4 is legal
        # for all three forwards, so each must refuse for the capacity.
        cfg, layer, xs = build(experts_per_gpu=1)
        adaptive = MoEConfig(
            world_size=cfg.world_size,
            experts_per_gpu=cfg.experts_per_gpu,
            model_dim=cfg.model_dim, hidden_dim=cfg.hidden_dim,
            tokens_per_gpu=cfg.tokens_per_gpu, top_k=cfg.top_k,
            capacity_factor=1.0)
        object.__setattr__(adaptive, "capacity_factor", -2.0)
        for forward in (distributed_moe_forward, p1_forward, p2_forward):
            with pytest.raises(ValueError, match="capacity_factor"):
                forward(xs, layer, adaptive)

    def test_exchange_rejects_a_mismatched_weight_stack(self):
        _, layer, _ = build()
        buffers = [np.zeros((8, 3, 8)) for _ in range(4)]
        with pytest.raises(ValueError, match="weight stack has 4 experts"):
            expert_exchange(buffers,
                            [(layer.w1.data[:4], layer.w2.data[:4])] * 4,
                            "gelu")
        with pytest.raises(ValueError, match="3 weight pairs for 4 ranks"):
            expert_exchange(buffers,
                            [(layer.w1.data[:2], layer.w2.data[:2])] * 3,
                            "gelu")

    def test_aux_loss_averaged(self):
        cfg, layer, xs = build()
        dist = distributed_moe_forward(xs, layer, cfg)
        assert dist.l_aux > 0
