"""Tests for the runtime planner (Figure 23 feature ladder)."""

import pytest

from repro.cluster.topology import ndv4_topology
from repro.core.config import MoEConfig
from repro.parallel.strategy import Parallelism
from repro.runtime.kernels import (
    dense_decode_time,
    dense_encode_time,
    gating_time,
    sparse_scatter_time,
)
from repro.parallel.strategy import build_segment_spec
from repro.runtime.plan import (
    FAIRSEQ_FEATURES,
    TUTEL_FEATURES,
    choose_parallelism,
    moe_step_time,
)


def fig23_cfg(world):
    """The Figure 23 single-layer setting."""
    return MoEConfig(world_size=world, experts_per_gpu=2,
                     model_dim=2048, hidden_dim=2048,
                     tokens_per_gpu=16384, top_k=2, capacity_factor=1.0)


class TestKernelTimes:
    def test_sparse_much_faster_than_dense(self):
        cfg = fig23_cfg(16)
        gpu = ndv4_topology(16).gpu
        assert dense_encode_time(cfg, gpu) > 10 * sparse_scatter_time(cfg,
                                                                      gpu)
        assert dense_decode_time(cfg, gpu) > 10 * sparse_scatter_time(cfg,
                                                                      gpu)

    def test_dense_cost_grows_quadratically_with_tokens(self):
        gpu = ndv4_topology(1).gpu
        small = dense_encode_time(fig23_cfg(1).with_(tokens_per_gpu=4096),
                                  gpu)
        large = dense_encode_time(fig23_cfg(1).with_(tokens_per_gpu=16384),
                                  gpu)
        assert large > 8 * small

    def test_sparse_cost_linear_in_tokens(self):
        gpu = ndv4_topology(1).gpu
        small = sparse_scatter_time(
            fig23_cfg(1).with_(tokens_per_gpu=4096), gpu)
        large = sparse_scatter_time(
            fig23_cfg(1).with_(tokens_per_gpu=16384), gpu)
        assert large < 6 * small

    def test_gating_grows_with_expert_count(self):
        gpu = ndv4_topology(2048).gpu
        small = gating_time(fig23_cfg(16), gpu)
        large = gating_time(fig23_cfg(2048), gpu)
        assert large > 2 * small


class TestChooseParallelism:
    def test_ep_when_enough_experts(self):
        cfg = fig23_cfg(16)  # dE = 2 -> r = 1
        topo = ndv4_topology(16)
        assert choose_parallelism(cfg, topo, TUTEL_FEATURES) is \
            Parallelism.EP

    def test_static_override(self):
        cfg = MoEConfig(world_size=8, experts_per_gpu=0.25,
                        model_dim=1024, hidden_dim=4096,
                        tokens_per_gpu=1024, top_k=1)
        topo = ndv4_topology(8)
        static = FAIRSEQ_FEATURES.with_(
            parallelism=Parallelism.P2_EP_MP)
        assert choose_parallelism(cfg, topo, static) is \
            Parallelism.P2_EP_MP

    def test_adaptive_picks_something(self):
        cfg = MoEConfig(world_size=8, experts_per_gpu=0.25,
                        model_dim=1024, hidden_dim=4096,
                        tokens_per_gpu=1024, top_k=1)
        topo = ndv4_topology(8)
        chosen = choose_parallelism(cfg, topo, TUTEL_FEATURES)
        assert chosen in (Parallelism.P1_EP_DP, Parallelism.P2_EP_MP)


class TestSegmentSpecs:
    def test_raw_layout_shrinks_rows(self):
        cfg = fig23_cfg(256)
        raw = build_segment_spec(cfg, Parallelism.EP, flexible_a2a=False)
        flex = build_segment_spec(cfg, Parallelism.EP, flexible_a2a=True)
        assert raw.expert_rows == cfg.capacity_per_gpu
        assert flex.expert_rows == cfg.global_capacity
        assert raw.expert_batch == 256 * 2
        assert flex.expert_batch == 2

    def test_p2_multiplies_bytes_and_shards_hidden(self):
        cfg = MoEConfig(world_size=8, experts_per_gpu=0.25,
                        model_dim=1024, hidden_dim=4096,
                        tokens_per_gpu=1024, top_k=1)
        spec = build_segment_spec(cfg, Parallelism.P2_EP_MP)
        assert spec.a2a_bytes == 4 * cfg.dispatch_bytes_per_gpu
        assert spec.hidden_dim == 1024


class TestFeatureLadder:
    """Adding each Tutel feature must never slow the layer down, and
    the full stack must land in the paper's speedup band."""

    @pytest.fixture(params=[16, 256, 2048])
    def world(self, request):
        return request.param

    def ladder(self, world):
        base = FAIRSEQ_FEATURES
        return [
            base,
            base.with_(name="+kernels", fast_kernels=True),
            base.with_(name="+pipelining", fast_kernels=True,
                       adaptive_pipelining=True),
            base.with_(name="+flex", fast_kernels=True,
                       adaptive_pipelining=True, flexible_a2a=True),
            TUTEL_FEATURES,
        ]

    def test_monotone_improvement(self, world):
        cfg = fig23_cfg(world)
        topo = ndv4_topology(world)
        totals = [moe_step_time(cfg, topo, f).total
                  for f in self.ladder(world)]
        for before, after in zip(totals, totals[1:]):
            assert after <= before * 1.001

    def test_paper_speedup_band(self, world):
        # Paper: 4.96x at 16 GPUs, 5.75x at 2,048 GPUs.
        cfg = fig23_cfg(world)
        topo = ndv4_topology(world)
        fair = moe_step_time(cfg, topo, FAIRSEQ_FEATURES).total
        tutel = moe_step_time(cfg, topo, TUTEL_FEATURES).total
        assert 2.5 < fair / tutel < 12

    def test_compute_only_below_total(self, world):
        cfg = fig23_cfg(world)
        topo = ndv4_topology(world)
        bd = moe_step_time(cfg, topo, TUTEL_FEATURES)
        assert bd.compute_only <= bd.total


class TestBreakdownFields:
    def test_total_is_sum(self):
        cfg = fig23_cfg(64)
        topo = ndv4_topology(64)
        bd = moe_step_time(cfg, topo, TUTEL_FEATURES)
        assert bd.total == pytest.approx(
            bd.gate + bd.encode + bd.decode + bd.segment + bd.param_comm)

    def test_inference_faster(self):
        cfg = fig23_cfg(64)
        topo = ndv4_topology(64)
        train = moe_step_time(cfg, topo, TUTEL_FEATURES, training=True)
        infer = moe_step_time(cfg, topo, TUTEL_FEATURES, training=False)
        assert infer.total < train.total

    def test_static_strategy_respected(self):
        cfg = fig23_cfg(64)
        topo = ndv4_topology(64)
        bd = moe_step_time(cfg, topo, FAIRSEQ_FEATURES)
        assert bd.pipeline_strategy == FAIRSEQ_FEATURES.pipeline_strategy

    def test_feature_with_override(self):
        custom = TUTEL_FEATURES.with_(name="x", fast_kernels=False)
        assert custom.fast_kernels is False
        assert TUTEL_FEATURES.fast_kernels is True
