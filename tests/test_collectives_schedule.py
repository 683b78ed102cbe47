"""Shape tests for the collective latency models (Figures 6, 20, 21)."""

import pytest

from repro.cluster.topology import ndv4_topology
from repro.collectives.schedule import (
    A2AAlgorithm,
    Impl,
    Protocol,
    a2a_time,
    all_gather_time,
    best_a2a_algorithm,
    linear_a2a_time,
    naive_local_agg_a2a_time,
    reduce_scatter_time,
    twodh_a2a_time,
)
from repro.core.units import MIB


class TestLinearA2ATime:
    def test_zero_bytes_free(self):
        assert linear_a2a_time(ndv4_topology(64), 0) == 0.0

    def test_single_gpu_free(self):
        assert linear_a2a_time(ndv4_topology(1), 1 * MIB) == 0.0

    def test_overhead_dominates_at_scale(self):
        # Fixed total size, growing world: per-chunk bytes shrink but
        # the message count grows, so latency grows (Figure 6b).
        t64 = linear_a2a_time(ndv4_topology(64), 1 * MIB)
        t2048 = linear_a2a_time(ndv4_topology(2048), 1 * MIB)
        assert t2048 > 10 * t64

    def test_monotone_in_bytes(self):
        topo = ndv4_topology(128)
        sizes = [1 * MIB, 32 * MIB, 256 * MIB]
        times = [linear_a2a_time(topo, s) for s in sizes]
        assert times == sorted(times)

    def test_intra_node_only_uses_nvlink(self):
        t = linear_a2a_time(ndv4_topology(8), 64 * MIB)
        # 8 GPUs on NVLink: a 64 MiB exchange takes well under 1 ms.
        assert t < 1e-3

    def test_rail_optimization_penalty(self):
        topo_rail = ndv4_topology(256)
        from dataclasses import replace
        topo_flat = replace(topo_rail, rail_optimized=False)
        assert linear_a2a_time(topo_rail, 1 * MIB) > \
            linear_a2a_time(topo_flat, 1 * MIB)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            linear_a2a_time(ndv4_topology(8), -1)


class TestNaiveLocalAgg:
    def test_section_34_growth(self):
        # Paper: the intra phase takes ~600us at n=8 and grows to ~5ms
        # at n=2048 for S=128 MiB (the n/m non-contiguous rounds).
        small = naive_local_agg_a2a_time(ndv4_topology(8), 128 * MIB)
        large = naive_local_agg_a2a_time(ndv4_topology(2048), 128 * MIB)
        assert large > 3 * small

    def test_slower_than_2dh_at_scale(self):
        topo = ndv4_topology(1024)
        assert naive_local_agg_a2a_time(topo, 32 * MIB) > \
            twodh_a2a_time(topo, 32 * MIB)


class Test2DHTime:
    def test_figure20_small_message_crossover(self):
        # 1 MiB: 2DH wins from small scale and the gap explodes.
        for n in (64, 256, 2048):
            topo = ndv4_topology(n)
            assert twodh_a2a_time(topo, 1 * MIB) < \
                linear_a2a_time(topo, 1 * MIB), f"n={n}"

    def test_figure20_large_message_small_scale_linear_wins(self):
        # 256 MiB at 64 GPUs: the extra copies make 2DH slower.
        topo = ndv4_topology(64)
        assert twodh_a2a_time(topo, 256 * MIB) > \
            linear_a2a_time(topo, 256 * MIB)

    def test_figure20_large_message_large_scale_2dh_wins(self):
        topo = ndv4_topology(2048)
        assert twodh_a2a_time(topo, 256 * MIB) < \
            linear_a2a_time(topo, 256 * MIB)

    def test_paper_speedup_band_at_2048(self):
        # "outperforms the previous state-of-the-art up to 20.7x over
        # 2,048 GPUs" (small messages).
        topo = ndv4_topology(2048)
        ratio = (linear_a2a_time(topo, 1 * MIB)
                 / twodh_a2a_time(topo, 1 * MIB))
        assert 5 < ratio < 40

    def test_scales_beyond_nccl(self):
        # 4,096 GPUs still works and stays sane (exa-scale claim).
        t = twodh_a2a_time(ndv4_topology(4096), 1 * MIB)
        assert 0 < t < 0.1

    def test_latency_scales_with_nodes_not_world(self):
        # Doubling world at fixed node count via bigger nodes barely
        # changes phase 4; growing node count does.
        t_8gpu_nodes = twodh_a2a_time(ndv4_topology(2048, 8), 1 * MIB)
        t_16gpu_nodes = twodh_a2a_time(ndv4_topology(2048, 16), 1 * MIB)
        assert t_16gpu_nodes < t_8gpu_nodes

    def test_msccl_removes_barriers(self):
        topo = ndv4_topology(512)
        nccl = twodh_a2a_time(topo, 1 * MIB, impl=Impl.NCCL)
        msccl = twodh_a2a_time(topo, 1 * MIB, impl=Impl.MSCCL)
        assert msccl < nccl

    def test_ll128_helps_small_sizes(self):
        topo = ndv4_topology(512)
        simple = twodh_a2a_time(topo, 1 * MIB, protocol=Protocol.SIMPLE,
                                impl=Impl.MSCCL)
        ll128 = twodh_a2a_time(topo, 1 * MIB, protocol=Protocol.LL128,
                               impl=Impl.MSCCL)
        assert ll128 < simple

    def test_simple_protocol_wins_large_sizes(self):
        topo = ndv4_topology(64)
        simple = twodh_a2a_time(topo, 256 * MIB, protocol=Protocol.SIMPLE,
                                impl=Impl.MSCCL)
        ll128 = twodh_a2a_time(topo, 256 * MIB, protocol=Protocol.LL128,
                               impl=Impl.MSCCL)
        assert simple < ll128


class TestDispatcher:
    def test_a2a_time_dispatch(self):
        topo = ndv4_topology(128)
        assert a2a_time(topo, 1 * MIB, A2AAlgorithm.LINEAR) == \
            linear_a2a_time(topo, 1 * MIB)
        assert a2a_time(topo, 1 * MIB, A2AAlgorithm.TWO_DH) == \
            twodh_a2a_time(topo, 1 * MIB)
        assert a2a_time(topo, 1 * MIB, A2AAlgorithm.NAIVE_LOCAL_AGG) == \
            naive_local_agg_a2a_time(topo, 1 * MIB)

    def test_best_algorithm_adapts(self):
        # Dynamic adaptation is required (Section 5.1.1 conclusion):
        # linear for big messages at small scale, 2DH otherwise.
        small_scale = best_a2a_algorithm(ndv4_topology(64), 256 * MIB)[0]
        large_scale = best_a2a_algorithm(ndv4_topology(2048), 1 * MIB)[0]
        assert small_scale is A2AAlgorithm.LINEAR
        assert large_scale is A2AAlgorithm.TWO_DH


class TestRingTimes:
    def test_all_gather_grows_with_group(self):
        topo = ndv4_topology(64)
        assert all_gather_time(topo, 1 * MIB, 16) > \
            all_gather_time(topo, 1 * MIB, 2)

    def test_group_of_one_free(self):
        topo = ndv4_topology(8)
        assert all_gather_time(topo, 1 * MIB, 1) == 0.0
        assert reduce_scatter_time(topo, 1 * MIB, 1) == 0.0

    @pytest.mark.parametrize("fn", [all_gather_time, reduce_scatter_time])
    @pytest.mark.parametrize("group", [0, -1])
    def test_rejects_nonpositive_group(self, fn, group):
        # 0 is not "the whole world" (that is None): it is rejected.
        with pytest.raises(ValueError, match="group_size must be >= 1"):
            fn(ndv4_topology(64), 1 * MIB, group_size=group)

    def test_intra_group_uses_nvlink(self):
        topo = ndv4_topology(64)
        # A group of 8 fits in one node -> NVLink-fast.
        assert all_gather_time(topo, 16 * MIB, 8) < \
            all_gather_time(topo, 16 * MIB, 16)


class Test3DHTime:
    def test_beats_2dh_at_extreme_scale(self):
        from repro.collectives.schedule import threedh_a2a_time
        topo = ndv4_topology(8192)
        assert threedh_a2a_time(topo, 8 * MIB, nodes_per_group=16) < \
            twodh_a2a_time(topo, 8 * MIB)

    def test_extra_copies_cost_at_small_scale(self):
        from repro.collectives.schedule import threedh_a2a_time
        topo = ndv4_topology(64)
        assert threedh_a2a_time(topo, 256 * MIB, nodes_per_group=4) > \
            twodh_a2a_time(topo, 256 * MIB)

    def test_zero_and_single(self):
        from repro.collectives.schedule import threedh_a2a_time
        assert threedh_a2a_time(ndv4_topology(1), 1 * MIB) == 0.0
        assert threedh_a2a_time(ndv4_topology(64), 0) == 0.0

    def test_rejects_bad_group(self):
        from repro.collectives.schedule import threedh_a2a_time
        with pytest.raises(ValueError):
            threedh_a2a_time(ndv4_topology(64), 1 * MIB,
                             nodes_per_group=0)
