"""Tests for capacity partitioning and pipeline schedules (Figure 14)."""

import numpy as np
import pytest

from repro.cluster.topology import ndv4_topology
from repro.collectives.schedule import A2AAlgorithm
from repro.core.config import MoEConfig
from repro.moe.ffn import ffn_forward_arrays
from repro.moe.gating import softmax
from repro.nn.moe import route
from repro.parallel.strategy import (
    Parallelism,
    SegmentSpec,
    build_segment_spec,
)
from repro.pipeline.schedule import (
    PipelineStrategy,
    all_strategies,
    build_segment_schedule,
    pipeline_segment_time,
    segment_time,
)


class TestPartition:
    def test_pipelined_expert_equals_unpipelined(self):
        # The functional core of Figure 14: chunked All-to-All + expert
        # + merge produces the same numbers as the monolithic path.
        rng = np.random.default_rng(1)
        e, cap, m, v = 4, 8, 6, 12
        w1, w2 = rng.normal(size=(e, m, v)), rng.normal(size=(e, v, m))
        probs = softmax(rng.normal(size=(32, e)))
        crit = route(probs, 2, capacity=cap).crit
        from repro.moe.encode import fast_encode
        dispatched = fast_encode(rng.normal(size=(32, m)), crit)

        def expert_ffn(x):
            return ffn_forward_arrays(x, w1, w2, "gelu")[0]

        whole = expert_ffn(dispatched)
        chunked = np.concatenate([
            expert_ffn(part) for part in np.split(dispatched, 4, axis=1)],
            axis=1)
        np.testing.assert_allclose(whole, chunked, atol=1e-12)


class TestPipelineStrategy:
    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            PipelineStrategy(degree=3)

    def test_grid_size(self):
        assert len(all_strategies()) == 8

    def test_describe(self):
        s = PipelineStrategy(degree=4, algorithm=A2AAlgorithm.TWO_DH)
        assert s.describe() == "2dh/deg4"

    def test_strategies_hashable_and_distinct(self):
        assert len(set(all_strategies())) == 8


class TestSegmentSpec:
    def test_from_config(self):
        cfg = MoEConfig(world_size=8, experts_per_gpu=2, model_dim=64,
                        hidden_dim=128, tokens_per_gpu=256, top_k=2)
        spec = build_segment_spec(cfg, Parallelism.EP)
        assert spec.a2a_bytes == cfg.dispatch_bytes_per_gpu
        assert spec.expert_rows == cfg.global_capacity
        assert spec.expert_batch == 2

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SegmentSpec(a2a_bytes=-1, expert_batch=1, expert_rows=1,
                        model_dim=1, hidden_dim=1)
        with pytest.raises(ValueError):
            SegmentSpec(a2a_bytes=0, expert_batch=0, expert_rows=1,
                        model_dim=1, hidden_dim=1)


class TestSchedules:
    @pytest.fixture
    def cfg(self):
        return MoEConfig(world_size=64, experts_per_gpu=2,
                         model_dim=2048, hidden_dim=2048,
                         tokens_per_gpu=8192, top_k=2)

    def test_degree1_is_serial_sum(self, cfg):
        topo = ndv4_topology(64)
        from repro.cluster.gemm import expert_ffn_time
        from repro.collectives.schedule import a2a_time
        strategy = PipelineStrategy(degree=1)
        total = pipeline_segment_time(cfg, topo, strategy)
        a2a = a2a_time(topo, cfg.dispatch_bytes_per_gpu,
                       A2AAlgorithm.LINEAR)
        expert = expert_ffn_time(topo.gpu, 2, cfg.global_capacity,
                                 2048, 2048)
        assert total == pytest.approx(2 * a2a + expert, rel=1e-6)

    def test_op_count_matches_degree(self, cfg):
        topo = ndv4_topology(64)
        for degree in (1, 2, 4, 8):
            schedule = build_segment_schedule(
                build_segment_spec(cfg, Parallelism.EP), topo,
                PipelineStrategy(degree=degree))
            # 3 ops per chunk + barrier.
            assert len(schedule.ops) == 3 * degree + 1

    def test_overlap_beats_serial_when_balanced(self, cfg):
        # When A2A and compute times are comparable, pipelining at
        # degree 2+ must beat degree 1 (Table 1's potential speedup).
        topo = ndv4_topology(64)
        t1 = pipeline_segment_time(
            cfg, topo, PipelineStrategy(2, A2AAlgorithm.TWO_DH))
        t0 = pipeline_segment_time(
            cfg, topo, PipelineStrategy(1, A2AAlgorithm.TWO_DH))
        assert t1 < t0

    def test_deep_pipelining_pays_overhead(self):
        # At large scale with the linear algorithm, every extra chunk
        # multiplies the per-message overhead: degree 8 loses.
        cfg = MoEConfig(world_size=2048, experts_per_gpu=2,
                        model_dim=2048, hidden_dim=2048,
                        tokens_per_gpu=16384, top_k=2)
        topo = ndv4_topology(2048)
        t1 = pipeline_segment_time(cfg, topo,
                                   PipelineStrategy(1, A2AAlgorithm.LINEAR))
        t8 = pipeline_segment_time(cfg, topo,
                                   PipelineStrategy(8, A2AAlgorithm.LINEAR))
        assert t8 > t1

    def test_figure5_optimum_varies_with_scale(self):
        # The jointly optimal (algorithm, degree) differs across
        # scales — the motivation for adaptive pipelining.
        best = set()
        for w in (16, 256, 2048):
            cfg = MoEConfig(world_size=w, experts_per_gpu=2,
                            model_dim=2048, hidden_dim=2048,
                            tokens_per_gpu=16384, top_k=2)
            topo = ndv4_topology(w)
            times = {s: pipeline_segment_time(cfg, topo, s)
                     for s in all_strategies()}
            best.add(min(times, key=times.__getitem__))
        assert len(best) >= 2

    def test_training_segment_slower(self, cfg):
        topo = ndv4_topology(64)
        s = PipelineStrategy(2, A2AAlgorithm.TWO_DH)
        spec = build_segment_spec(cfg, Parallelism.EP)
        assert segment_time(spec, topo, s, training=True) > \
            segment_time(spec, topo, s, training=False)
