"""Shape tests for the collective latency models (Figures 6, 20, 21),
and the one pricer pinned to the formulas it replaced."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.topology import ndv4_topology, nvswitch256_topology
from repro.collectives.schedule import (
    NODES_PER_GROUP,
    A2AAlgorithm,
    CollectiveCostModel,
    Copy,
    Exchange,
    Impl,
    Link,
    Protocol,
    a2a_schedule,
    a2a_time,
    all_gather_time,
    best_a2a_algorithm,
    reduce_scatter_time,
)
from repro.core.units import MIB
from tests import reference_ops as ref

LINEAR = A2AAlgorithm.LINEAR
NAIVE = A2AAlgorithm.NAIVE_LOCAL_AGG
TWO_DH = A2AAlgorithm.TWO_DH
THREE_DH = A2AAlgorithm.THREE_DH


def linear_time(topo, total, protocol=Protocol.SIMPLE):
    return a2a_time(topo, total, LINEAR, protocol)


def naive_time(topo, total):
    return a2a_time(topo, total, NAIVE)


def twodh_time(topo, total, protocol=Protocol.SIMPLE, impl=Impl.NCCL):
    return a2a_time(topo, total, TWO_DH, protocol, impl)


def threedh_time(topo, total):
    return a2a_time(topo, total, THREE_DH, impl=Impl.MSCCL)


def oracle(topo, total, algorithm, protocol, impl,
           model=CollectiveCostModel()):
    """The replaced per-algorithm formula (2DH's phase-3 copy corrected)."""
    if algorithm is LINEAR:
        return ref.linear_a2a_time(topo, total, protocol, model)
    if algorithm is NAIVE:
        return ref.naive_local_agg_a2a_time(topo, total, protocol, model)
    if algorithm is TWO_DH:
        return ref.twodh_a2a_time(topo, total, protocol, impl, model)
    return ref.threedh_a2a_time(topo, total, NODES_PER_GROUP, protocol,
                                impl, model)


class TestLinearA2ATime:
    def test_zero_bytes_free(self):
        assert linear_time(ndv4_topology(64), 0) == 0.0

    def test_single_gpu_free(self):
        assert linear_time(ndv4_topology(1), 1 * MIB) == 0.0

    def test_overhead_dominates_at_scale(self):
        # Fixed total size, growing world: per-chunk bytes shrink but
        # the message count grows, so latency grows (Figure 6b).
        t64 = linear_time(ndv4_topology(64), 1 * MIB)
        t2048 = linear_time(ndv4_topology(2048), 1 * MIB)
        assert t2048 > 10 * t64

    def test_monotone_in_bytes(self):
        topo = ndv4_topology(128)
        sizes = [1 * MIB, 32 * MIB, 256 * MIB]
        times = [linear_time(topo, s) for s in sizes]
        assert times == sorted(times)

    def test_intra_node_only_uses_nvlink(self):
        t = linear_time(ndv4_topology(8), 64 * MIB)
        # 8 GPUs on NVLink: a 64 MiB exchange takes well under 1 ms.
        assert t < 1e-3

    def test_rail_optimization_penalty(self):
        topo_rail = ndv4_topology(256)
        topo_flat = replace(topo_rail, rail_optimized=False)
        assert linear_time(topo_rail, 1 * MIB) > \
            linear_time(topo_flat, 1 * MIB)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            linear_time(ndv4_topology(8), -1)


class TestNaiveLocalAgg:
    def test_section_34_growth(self):
        # Paper: the intra phase takes ~600us at n=8 and grows to ~5ms
        # at n=2048 for S=128 MiB (the n/m non-contiguous rounds).
        small = naive_time(ndv4_topology(8), 128 * MIB)
        large = naive_time(ndv4_topology(2048), 128 * MIB)
        assert large > 3 * small

    def test_slower_than_2dh_at_scale(self):
        topo = ndv4_topology(1024)
        assert naive_time(topo, 32 * MIB) > \
            twodh_time(topo, 32 * MIB)


class Test2DHTime:
    def test_figure20_small_message_crossover(self):
        # 1 MiB: 2DH wins from small scale and the gap explodes.
        for n in (64, 256, 2048):
            topo = ndv4_topology(n)
            assert twodh_time(topo, 1 * MIB) < \
                linear_time(topo, 1 * MIB), f"n={n}"

    def test_figure20_large_message_small_scale_linear_wins(self):
        # 256 MiB at 64 GPUs: the extra copies make 2DH slower.
        topo = ndv4_topology(64)
        assert twodh_time(topo, 256 * MIB) > \
            linear_time(topo, 256 * MIB)

    def test_figure20_large_message_large_scale_2dh_wins(self):
        topo = ndv4_topology(2048)
        assert twodh_time(topo, 256 * MIB) < \
            linear_time(topo, 256 * MIB)

    def test_paper_speedup_band_at_2048(self):
        # "outperforms the previous state-of-the-art up to 20.7x over
        # 2,048 GPUs" (small messages).
        topo = ndv4_topology(2048)
        ratio = (linear_time(topo, 1 * MIB)
                 / twodh_time(topo, 1 * MIB))
        assert 5 < ratio < 40

    def test_scales_beyond_nccl(self):
        # 4,096 GPUs still works and stays sane (exa-scale claim).
        t = twodh_time(ndv4_topology(4096), 1 * MIB)
        assert 0 < t < 0.1

    def test_latency_scales_with_nodes_not_world(self):
        # Doubling world at fixed node count via bigger nodes barely
        # changes phase 4; growing node count does.
        t_8gpu_nodes = twodh_time(ndv4_topology(2048, 8), 1 * MIB)
        t_16gpu_nodes = twodh_time(ndv4_topology(2048, 16), 1 * MIB)
        assert t_16gpu_nodes < t_8gpu_nodes

    def test_msccl_removes_barriers(self):
        topo = ndv4_topology(512)
        nccl = twodh_time(topo, 1 * MIB, impl=Impl.NCCL)
        msccl = twodh_time(topo, 1 * MIB, impl=Impl.MSCCL)
        assert msccl < nccl

    def test_ll128_helps_small_sizes(self):
        topo = ndv4_topology(512)
        simple = twodh_time(topo, 1 * MIB, Protocol.SIMPLE, Impl.MSCCL)
        ll128 = twodh_time(topo, 1 * MIB, Protocol.LL128, Impl.MSCCL)
        assert ll128 < simple

    def test_simple_protocol_wins_large_sizes(self):
        topo = ndv4_topology(64)
        simple = twodh_time(topo, 256 * MIB, Protocol.SIMPLE, Impl.MSCCL)
        ll128 = twodh_time(topo, 256 * MIB, Protocol.LL128, Impl.MSCCL)
        assert simple < ll128


class TestDispatcher:
    def test_a2a_time_dispatch(self):
        topo = ndv4_topology(128)
        times = {algo: a2a_time(topo, 1 * MIB, algo)
                 for algo in A2AAlgorithm}
        assert len(set(times.values())) == len(A2AAlgorithm)
        for algo, t in times.items():
            assert t == oracle(topo, 1 * MIB, algo, Protocol.SIMPLE,
                               Impl.NCCL)

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

    def test_prices_unchanged(self):
        topo = ndv4_topology(64)
        for g, link in ((8, topo.intra_link), (16, topo.inter_link)):
            assert all_gather_time(topo, 3 * MIB, g) == \
                link.stream_time(3 * MIB, g - 1)
            assert reduce_scatter_time(topo, 3 * MIB, g) == \
                link.stream_time(3 * MIB / g, g - 1)

    def test_intra_group_uses_nvlink(self):
        topo = ndv4_topology(64)
        # A group of 8 fits in one node -> NVLink-fast.
        assert all_gather_time(topo, 16 * MIB, 8) < \
            all_gather_time(topo, 16 * MIB, 16)


class Test3DHTime:
    def test_beats_2dh_at_extreme_scale(self):
        topo = ndv4_topology(8192)
        assert threedh_time(topo, 8 * MIB) < \
            twodh_time(topo, 8 * MIB)

    def test_extra_copies_cost_at_small_scale(self):
        # 8 nodes form one group: the third level only adds a copy.
        topo = ndv4_topology(64)
        assert threedh_time(topo, 256 * MIB) > \
            twodh_time(topo, 256 * MIB)

    def test_zero_and_single(self):
        assert threedh_time(ndv4_topology(1), 1 * MIB) == 0.0
        assert threedh_time(ndv4_topology(64), 0) == 0.0

    def test_not_in_the_default_pool(self):
        # 3DH is priced only: adaptive selection never picks it.
        for n in (64, 8192, 32768):
            algo, _ = best_a2a_algorithm(ndv4_topology(n), 8 * MIB)
            assert algo in (LINEAR, TWO_DH)


class TestOnePricer:
    """Every phase list prices bitwise what its old formula did."""

    @settings(max_examples=300, deadline=None)
    @given(algorithm=st.sampled_from(list(A2AAlgorithm)),
           protocol=st.sampled_from(list(Protocol)),
           impl=st.sampled_from(list(Impl)),
           n=st.integers(1, 4096), gpus_per_node=st.sampled_from([8, 16]),
           rail_optimized=st.booleans(),
           total=st.one_of(st.just(0), st.integers(1, 2 ** 31),
                           st.floats(1.0, 2.0 ** 31)))
    def test_ndv4_matches_oracle(self, algorithm, protocol, impl, n,
                                 gpus_per_node, rail_optimized, total):
        topo = replace(ndv4_topology(n, gpus_per_node),
                       rail_optimized=rail_optimized)
        assert a2a_time(topo, total, algorithm, protocol, impl) == \
            oracle(topo, total, algorithm, protocol, impl)

    @settings(max_examples=100, deadline=None)
    @given(algorithm=st.sampled_from(list(A2AAlgorithm)),
           protocol=st.sampled_from(list(Protocol)),
           impl=st.sampled_from(list(Impl)),
           n=st.integers(1, 32768),
           total=st.one_of(st.just(0), st.integers(1, 2 ** 31)))
    def test_nvswitch256_matches_oracle(self, algorithm, protocol, impl, n,
                                        total):
        topo = nvswitch256_topology(n)
        assert a2a_time(topo, total, algorithm, protocol, impl) == \
            oracle(topo, total, algorithm, protocol, impl)

    def test_bench_points_match_oracle(self):
        # Every (world, size) the Figure 6/20/21 and hierarchy benches read.
        for n in (64, 128, 256, 512, 1024, 2048, 4096, 8192, 32768):
            for total in (1 * MIB, 8 * MIB, 32 * MIB, 256 * MIB, 1024 * MIB):
                for topo in (ndv4_topology(n), nvswitch256_topology(n)):
                    for algorithm in A2AAlgorithm:
                        for impl in Impl:
                            assert a2a_time(topo, total, algorithm,
                                            impl=impl) == oracle(
                                topo, total, algorithm, Protocol.SIMPLE,
                                impl)

    def test_custom_model_reaches_every_term(self):
        model = CollectiveCostModel(cross_rail_overhead=4.0,
                                    cross_rail_bandwidth=0.5,
                                    phase_barrier=1e-3,
                                    ll128_overhead_factor=0.1,
                                    ll128_bandwidth_factor=0.8)
        topo = ndv4_topology(256)
        for algorithm in A2AAlgorithm:
            for protocol in Protocol:
                assert a2a_time(topo, 3 * MIB, algorithm, protocol,
                                Impl.NCCL, model) == oracle(
                    topo, 3 * MIB, algorithm, protocol, Impl.NCCL, model)

    def test_2dh_copies_move_chunks(self):
        topo = ndv4_topology(64)
        phases = a2a_schedule(topo, 64 * MIB, TWO_DH).phases
        assert phases == (Copy(64 * MIB, MIB),
                          Exchange(Link.INTRA, 7, 8 * MIB),
                          Copy(64 * MIB, MIB),
                          Exchange(Link.RAIL, 7, 8 * MIB))

    def test_rejects_negative_bytes(self):
        for algorithm in A2AAlgorithm:
            with pytest.raises(ValueError, match="total_bytes"):
                a2a_schedule(ndv4_topology(8), -1, algorithm)
