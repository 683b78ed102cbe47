"""Tests for P1/P2 strategies, placement, and the inline P1/P2 choice."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ndv4_topology
from repro.core.config import MoEConfig
from repro.parallel.placement import (
    ExpertPlacement,
    build_placement,
    round_robin_placement,
)
from repro.parallel.strategy import (
    Parallelism,
    available_strategies,
    best_strategy,
    build_segment_spec,
    p1_communication_bytes,
    p2_communication_bytes,
    strategy_cost,
)
from repro.runtime.plan import TUTEL_FEATURES, moe_step_time


def cfg_with(f=1.0, experts=2, world=8, tokens=2048, m=2048, v=8192,
             k=2):
    return MoEConfig(world_size=world, experts_per_gpu=experts / world,
                     model_dim=m, hidden_dim=v, tokens_per_gpu=tokens,
                     top_k=min(k, experts), capacity_factor=f)


class TestReplicationFactor:
    def test_more_experts_than_gpus(self):
        cfg = MoEConfig(world_size=4, experts_per_gpu=2)
        assert cfg.expert_shards == 1

    def test_fewer_experts_than_gpus(self):
        assert cfg_with(experts=2, world=8).expert_shards == 4

    def test_matches_expert_shards(self):
        # r = W / E whenever experts are fewer than GPUs.
        cfg = MoEConfig(world_size=6, experts_per_gpu=1 / 3)
        assert cfg.expert_shards == 6 // cfg.num_global_experts == 3


class TestCommunicationBytes:
    def test_p1_has_parameter_traffic(self):
        cfg = cfg_with()
        a2a, params = p1_communication_bytes(cfg)
        assert a2a == cfg.dispatch_bytes_per_gpu
        assert params > 0

    def test_p1_no_param_traffic_when_r1(self):
        cfg = MoEConfig(world_size=4, experts_per_gpu=1)
        assert p1_communication_bytes(cfg)[1] == 0

    def test_p2_repeats_tokens(self):
        cfg = cfg_with()
        r = cfg.expert_shards
        a2a, params = p2_communication_bytes(cfg)
        assert a2a == r * cfg.dispatch_bytes_per_gpu
        assert params == 0

    def test_paper_tradeoff_direction(self):
        # T_model grows with f (token volume); T_data's parameter term
        # does not.  So P2's relative cost rises with f.
        small_f = cfg_with(f=1)
        large_f = cfg_with(f=16)
        p1_small = sum(p1_communication_bytes(small_f))
        p2_small = sum(p2_communication_bytes(small_f))
        p1_large = sum(p1_communication_bytes(large_f))
        p2_large = sum(p2_communication_bytes(large_f))
        assert p2_small / p1_small < p2_large / p1_large


class TestStrategyCost:
    def test_ep_requires_r1(self):
        topo = ndv4_topology(8)
        with pytest.raises(ValueError):
            strategy_cost(cfg_with(), topo, Parallelism.EP)

    def test_cost_fields_positive(self):
        topo = ndv4_topology(8)
        cost = strategy_cost(cfg_with(), topo, Parallelism.P1_EP_DP)
        assert cost.comm_time > 0
        assert cost.compute_time > 0
        assert cost.total_time == cost.comm_time + cost.compute_time

    def test_equivalent_local_compute(self):
        # Paper: P1 and P2 have theoretically equivalent local
        # computation; allow the layout-efficiency wiggle.
        topo = ndv4_topology(8)
        cfg = cfg_with()
        c1 = strategy_cost(cfg, topo, Parallelism.P1_EP_DP).compute_time
        c2 = strategy_cost(cfg, topo, Parallelism.P2_EP_MP).compute_time
        assert 0.4 < c1 / c2 < 2.5

    def test_inference_cheaper_than_training(self):
        topo = ndv4_topology(8)
        cfg = cfg_with()
        train = strategy_cost(cfg, topo, Parallelism.P1_EP_DP,
                              training=True)
        infer = strategy_cost(cfg, topo, Parallelism.P1_EP_DP,
                              training=False)
        assert infer.total_time < train.total_time


class TestFigure3Preference:
    """P2 wins at small f, P1 at large f (the preference flip)."""

    def test_crossover_exists(self):
        topo = ndv4_topology(8)
        choices = []
        for f in (1, 2, 4, 8, 16):
            choices.append(best_strategy(cfg_with(f=f), topo).strategy)
        assert Parallelism.P2_EP_MP in choices
        assert Parallelism.P1_EP_DP in choices
        # P2 preferred at the smallest f, P1 at the largest.
        assert choices[0] is Parallelism.P2_EP_MP
        assert choices[-1] is Parallelism.P1_EP_DP

    def test_table5b_hidden_size_prefers_p2(self):
        # Large hidden size V (big expert params) favours P2's
        # no-parameter-traffic design: f1,E2,S16K,V2K row.
        topo = ndv4_topology(8)
        big_tokens = best_strategy(
            cfg_with(f=1, experts=2, tokens=16384, m=2048, v=2048), topo)
        assert big_tokens.strategy is Parallelism.P1_EP_DP

    def test_table5b_big_hidden_prefers_p1_or_p2(self):
        # f1,E4,S1K,V8K row: adaptive picks P2 (params >> tokens).
        topo = ndv4_topology(8)
        decision = best_strategy(
            cfg_with(f=1, experts=4, tokens=1024, m=2048, v=8192), topo)
        assert decision.strategy is Parallelism.P2_EP_MP


class TestRouter:
    def test_ep_when_r1(self):
        topo = ndv4_topology(8)
        cfg = MoEConfig(world_size=8, experts_per_gpu=1)
        assert best_strategy(cfg, topo).strategy is Parallelism.EP

    def test_improvement_over_static(self):
        topo = ndv4_topology(8)
        cfg = cfg_with(f=16)
        chosen = best_strategy(cfg, topo)
        # The adaptive choice never loses to either static choice.
        for strategy in available_strategies(cfg):
            assert chosen.total_time <= \
                strategy_cost(cfg, topo, strategy).total_time


class TestOneLayoutModel:
    """``build_segment_spec`` is the one layout model: P1 computes
    ``C / r`` rows at full ``V``, P2 all ``C`` rows against a ``V / r``
    shard with ``r`` times the dispatch bytes, and the planner's P1/P2
    choice is ``best_strategy``."""

    @settings(max_examples=30, deadline=None)
    @given(w=st.sampled_from([8, 16, 64]),
           de=st.sampled_from([1 / 8, 1 / 4, 1 / 2, 1, 2]),
           m=st.integers(8, 1024), v=st.integers(64, 8192),
           t=st.integers(1, 8192), k=st.integers(1, 2),
           f=st.floats(0.1, 16.0))
    def test_layouts_and_choice(self, w, de, m, v, t, k, f):
        e = max(1, round(w * de))
        cfg = MoEConfig(world_size=w, experts_per_gpu=de, model_dim=m,
                        hidden_dim=v, tokens_per_gpu=t, top_k=min(k, e),
                        capacity_factor=f)
        r, c = cfg.expert_shards, cfg.global_capacity
        p1 = build_segment_spec(cfg, Parallelism.P1_EP_DP)
        p2 = build_segment_spec(cfg, Parallelism.P2_EP_MP)
        assert (p1.expert_rows, p1.hidden_dim, p1.a2a_bytes) == \
            (c // r, v, cfg.dispatch_bytes_per_gpu)
        assert (p2.expert_rows, p2.hidden_dim, p2.a2a_bytes) == \
            (c, v // r, r * cfg.dispatch_bytes_per_gpu)
        topo = ndv4_topology(w)
        assert moe_step_time(cfg, topo, TUTEL_FEATURES).parallelism is \
            best_strategy(cfg, topo).strategy


class TestPlacement:
    def test_figure17a_positive(self):
        # #GPU=2, count_per_node=2: GPU0 {E0,E1}, GPU1 {E2,E3}.
        p = build_placement(2, 2)
        assert p.num_global_experts == 4
        assert p.gpu_to_experts[0] == ((0, 0), (1, 0))
        assert p.gpu_to_experts[1] == ((2, 0), (3, 0))

    def test_figure17b_negative(self):
        # #GPU=8, count_per_node=-2: expert i sharded on GPUs 2i, 2i+1.
        p = build_placement(8, -2)
        assert p.num_global_experts == 4
        assert p.shards_per_expert == 2
        assert p.gpu_to_experts[0] == ((0, 0),)
        assert p.gpu_to_experts[1] == ((0, 1),)
        assert p.gpus_of_expert(3) == [6, 7]

    def test_experts_per_gpu_fraction(self):
        assert build_placement(8, -4).experts_per_gpu == 0.25

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_placement(4, 0)

    def test_rejects_indivisible_shards(self):
        with pytest.raises(ValueError):
            build_placement(6, -4)

    def test_gpus_of_expert_bounds(self):
        p = build_placement(2, 2)
        with pytest.raises(ValueError):
            p.gpus_of_expert(4)


class TestExpertIndex:
    """The precomputed expert→GPUs inverse index on the frozen
    placement (replaces the per-call linear scan)."""

    def test_positive_count_per_node(self):
        p = build_placement(4, 2)
        assert p.expert_to_gpus == ((0,), (0,), (1,), (1,),
                                    (2,), (2,), (3,), (3,))
        for e in range(p.num_global_experts):
            # The index agrees with a fresh linear scan.
            scanned = [g for g, hosted in enumerate(p.gpu_to_experts)
                       if any(e == he for he, _ in hosted)]
            assert p.gpus_of_expert(e) == scanned

    def test_negative_count_per_node(self):
        p = build_placement(8, -2)
        assert p.expert_to_gpus == ((0, 1), (2, 3), (4, 5), (6, 7))
        for e in range(p.num_global_experts):
            scanned = [g for g, hosted in enumerate(p.gpu_to_experts)
                       if any(e == he for he, _ in hosted)]
            assert p.gpus_of_expert(e) == scanned

    def test_deep_sharding(self):
        p = build_placement(8, -4)
        assert p.expert_to_gpus == ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_index_is_rank_sorted(self):
        # Hosting order in gpu_to_experts must not leak into the index.
        p = ExpertPlacement(
            num_gpus=2, num_global_experts=2, experts_per_gpu=1.0,
            shards_per_expert=2,
            gpu_to_experts=(((1, 0), (0, 1)), ((0, 0), (1, 1))))
        assert p.expert_to_gpus == ((0, 1), (0, 1))

    def test_out_of_range_hosted_expert_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ExpertPlacement(
                num_gpus=1, num_global_experts=2, experts_per_gpu=2.0,
                shards_per_expert=1,
                gpu_to_experts=(((0, 0), (5, 0)),))

    def test_disagreeing_explicit_index_rejected(self):
        with pytest.raises(ValueError, match="expert_to_gpus"):
            ExpertPlacement(
                num_gpus=2, num_global_experts=2, experts_per_gpu=1.0,
                shards_per_expert=1,
                gpu_to_experts=(((0, 0),), ((1, 0),)),
                expert_to_gpus=((1,), (0,)))


class TestRoundRobinPlacement:
    def test_strided_layout(self):
        p = round_robin_placement(4, 8)
        # Expert e lives on GPU e % 4.
        for e in range(8):
            assert p.gpus_of_expert(e) == [e % 4]
        assert p.gpu_to_experts[0] == ((0, 0), (4, 0))
        assert p.experts_per_gpu == 2.0
        assert p.shards_per_expert == 1

    def test_one_expert_per_gpu(self):
        p = round_robin_placement(4, 4)
        assert p.gpu_to_experts == (((0, 0),), ((1, 0),),
                                    ((2, 0),), ((3, 0),))

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            round_robin_placement(4, 6)

    def test_rejects_bad_world(self):
        with pytest.raises(ValueError):
            round_robin_placement(0, 4)
