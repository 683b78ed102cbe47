"""Tests for the Fairseq / DeepSpeed baseline profiles."""

import numpy as np

from repro.autograd.tensor import Tensor
from repro.baselines.deepspeed_moe import deepspeed_fflayer_time
from repro.cluster.memory import dense_moe_memory
from repro.cluster.topology import ndv4_topology
from repro.collectives.schedule import A2AAlgorithm
from repro.core.config import MoEConfig
from repro.core.substrate import substrate_dtype
from repro.moe.encode import dense_decode, dense_encode
from repro.moe.ffn import ffn_forward_arrays
from repro.moe.gating import softmax
from repro.nn.moe import MoE, route
from repro.runtime.plan import FAIRSEQ_FEATURES, moe_step_time


class TestFairseqForward:
    def test_matches_tutel_numerics(self):
        # Same computation logic as GShard: Fairseq's dense einsum
        # encode/decode (first-come-first-served, a fixed factor) gives
        # the Tutel layer's sparse-kernel outputs.
        rng = np.random.default_rng(0)
        with substrate_dtype(np.float64):
            layer = MoE(8, 16, 4, rng, capacity_factor=2.0)
        layer.freeze()
        x = np.random.default_rng(1).normal(size=(32, 8))
        tutel, _ = layer(Tensor(x, dtype=x.dtype))
        routing = route(softmax(x @ layer.gate.weight.data), 2,
                        layer.capacity_policy)
        crit = routing.crit.with_gates(routing.gates)
        hidden, _ = ffn_forward_arrays(dense_encode(x, crit), layer.w1.data,
                                       layer.w2.data, "gelu")
        np.testing.assert_allclose(dense_decode(hidden, crit), tutel.data,
                                   atol=1e-10)


class TestFairseqProfile:
    def test_features_all_off(self):
        f = FAIRSEQ_FEATURES
        assert not f.fast_kernels
        assert not f.flexible_a2a
        assert not f.adaptive_pipelining
        assert not f.adaptive_parallelism
        assert f.pipeline_strategy.degree == 1
        assert f.pipeline_strategy.algorithm is A2AAlgorithm.LINEAR

    def test_memory_is_dense(self):
        cfg = MoEConfig(world_size=1, experts_per_gpu=2, model_dim=512,
                        hidden_dim=512, tokens_per_gpu=2048, top_k=2)
        breakdown = dense_moe_memory(cfg)
        assert any("T,E,dC" in name for name in breakdown.tensors)


class TestDeepSpeed:
    def test_features_static(self):
        # DeepSpeed runs the static Fairseq profile: its fflayer is the
        # expert compute of that step, in the raw (W, dE, dC, M) layout.
        cfg = MoEConfig(world_size=64, experts_per_gpu=1, model_dim=2048,
                        hidden_dim=2048, tokens_per_gpu=16384, top_k=1)
        topo = ndv4_topology(64)
        step = moe_step_time(cfg, topo, FAIRSEQ_FEATURES, training=False)
        assert step.expert_compute == deepspeed_fflayer_time(cfg, topo)

    def test_figure7_fflayer_regression(self):
        # dE = 1, M = V = 2048, f = 1, 16384 tokens/step per GPU:
        # the fflayer slows ~11.3x from 1 to 2,048 GPUs.
        def cfg(w):
            return MoEConfig(world_size=w, experts_per_gpu=1,
                             model_dim=2048, hidden_dim=2048,
                             tokens_per_gpu=16384, top_k=1,
                             capacity_factor=1.0)
        t1 = deepspeed_fflayer_time(cfg(1), ndv4_topology(1))
        t2048 = deepspeed_fflayer_time(cfg(2048), ndv4_topology(2048))
        assert 6 < t2048 / t1 < 20

    def test_fflayer_monotone_in_world(self):
        def cfg(w):
            return MoEConfig(world_size=w, experts_per_gpu=1,
                             model_dim=2048, hidden_dim=2048,
                             tokens_per_gpu=16384, top_k=1)
        times = [deepspeed_fflayer_time(cfg(w), ndv4_topology(w))
                 for w in (1, 16, 256, 2048)]
        assert times == sorted(times)
