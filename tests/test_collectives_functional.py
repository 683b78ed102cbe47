"""Correctness tests for the functional collectives.

The load-bearing assertions: 2DH All-to-All (Algorithm 3) is
byte-identical to linear All-to-All (Algorithm 1) on every world size,
its intermediate phases match the exact layouts drawn in paper
Figure 15, and what both movers move is what their closed-form phase
lists price.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.topology import ndv4_topology
from repro.collectives.functional import (
    Traffic,
    all_gather,
    all_to_all_2dh_phases,
    flexible_all_to_all,
    reduce_scatter,
    stride_memcpy,
)
from repro.collectives.schedule import A2AAlgorithm, a2a_schedule


def linear_a2a(world, traffic=None):
    """The linear All-to-All (Algorithm 1)."""
    return flexible_all_to_all(world, 0, 0, traffic)


def make_world(n, chunk_shape=(3,), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, *chunk_shape)) for _ in range(n)]


def tagged_world(n):
    """inputs[src][dst] = 10*src + dst (the Figure 15 labelling)."""
    return [np.array([10 * src + dst for dst in range(n)], dtype=np.int64)
            .reshape(n, 1) for src in range(n)]


class TestLinearA2A:
    def test_transpose_semantics(self):
        world = make_world(4)
        out = linear_a2a(world)
        for r in range(4):
            for s in range(4):
                np.testing.assert_array_equal(out[r][s], world[s][r])

    def test_single_rank_identity(self):
        world = make_world(1)
        out = linear_a2a(world)
        np.testing.assert_array_equal(out[0], world[0])

    def test_involution(self):
        world = make_world(6)
        twice = linear_a2a(linear_a2a(world))
        for r in range(6):
            np.testing.assert_array_equal(twice[r], world[r])

    def test_rejects_mismatched_shapes(self):
        world = make_world(4)
        world[2] = world[2][:3]
        with pytest.raises(ValueError):
            linear_a2a(world)

    def test_rejects_wrong_leading_dim(self):
        world = [np.zeros((3, 2)) for _ in range(4)]
        with pytest.raises(ValueError):
            linear_a2a(world)

    def test_rejects_empty_world(self):
        with pytest.raises(ValueError):
            linear_a2a([])


class TestStrideMemcpy:
    def test_grid_transpose(self):
        buf = np.arange(6).reshape(6, 1)
        # viewed as 2x3 (col=2 rows of 3), transposed to 3x2
        out = stride_memcpy(buf, row=3, col=2)
        np.testing.assert_array_equal(out.ravel(), [0, 3, 1, 4, 2, 5])

    def test_double_transpose_identity(self):
        buf = np.arange(24).reshape(24, 1)
        once = stride_memcpy(buf, row=4, col=6)
        twice = stride_memcpy(once, row=6, col=4)
        np.testing.assert_array_equal(twice, buf)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            stride_memcpy(np.zeros((5, 1)), row=2, col=3)


class TestFigure15Layouts:
    """Phase-by-phase data layouts of the 8-GPU, 2-node example."""

    @pytest.fixture
    def phases(self):
        return all_to_all_2dh_phases(tagged_world(8), gpus_per_node=4)

    def test_phase1_gpu0(self, phases):
        # Figure 15: GPU0 after phase 1 holds 00 04 01 05 02 06 03 07.
        np.testing.assert_array_equal(
            phases[1][0].ravel(), [0, 4, 1, 5, 2, 6, 3, 7])

    def test_phase2_gpu0(self, phases):
        # 00 04 10 14 20 24 30 34
        np.testing.assert_array_equal(
            phases[2][0].ravel(), [0, 4, 10, 14, 20, 24, 30, 34])

    def test_phase3_gpu0(self, phases):
        # 00 10 20 30 04 14 24 34
        np.testing.assert_array_equal(
            phases[3][0].ravel(), [0, 10, 20, 30, 4, 14, 24, 34])

    def test_phase4_gpu0(self, phases):
        # 00 10 20 30 40 50 60 70
        np.testing.assert_array_equal(
            phases[4][0].ravel(), [0, 10, 20, 30, 40, 50, 60, 70])

    def test_phase2_gpu5(self, phases):
        # Figure 15 row GPU5 after phase 2: 41 45 51 55 61 65 71 75.
        np.testing.assert_array_equal(
            phases[2][5].ravel(), [41, 45, 51, 55, 61, 65, 71, 75])

    def test_phase4_gpu7(self, phases):
        # 07 17 27 37 47 57 67 77
        np.testing.assert_array_equal(
            phases[4][7].ravel(), [7, 17, 27, 37, 47, 57, 67, 77])


class Test2DHEquivalence:
    @pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (8, 4), (8, 8),
                                     (16, 4), (16, 8), (32, 8)])
    def test_matches_linear(self, n, m):
        world = make_world(n, chunk_shape=(2, 3), seed=n)
        linear = linear_a2a(world)
        hier = all_to_all_2dh_phases(world, gpus_per_node=m)[-1]
        for r in range(n):
            np.testing.assert_allclose(hier[r], linear[r])

    def test_rejects_indivisible_world(self):
        with pytest.raises(ValueError):
            all_to_all_2dh_phases(make_world(6), gpus_per_node=4)

    @pytest.mark.parametrize("m", [0, -2])
    def test_rejects_nonpositive_gpus_per_node(self, m):
        with pytest.raises(ValueError, match="gpus_per_node must be >= 1"):
            all_to_all_2dh_phases(make_world(4), gpus_per_node=m)

    @settings(max_examples=25, deadline=None)
    @given(nodes=st.integers(1, 4), m=st.sampled_from([1, 2, 4]),
           payload=st.integers(1, 5))
    def test_property_matches_linear(self, nodes, m, payload):
        n = nodes * m
        world = make_world(n, chunk_shape=(payload,), seed=n + payload)
        linear = linear_a2a(world)
        hier = all_to_all_2dh_phases(world, gpus_per_node=m)[-1]
        for r in range(n):
            np.testing.assert_allclose(hier[r], linear[r])


class TestCountedTraffic:
    """Each mover counts the closed form's phases, record for record."""

    def test_every_world_and_node_size(self):
        for w in range(1, 65):
            world = make_world(w, chunk_shape=(2,), seed=w)
            linear = linear_a2a(world)
            for m in (d for d in range(1, w + 1) if w % d == 0):
                hier = all_to_all_2dh_phases(world, gpus_per_node=m)[-1]
                assert all(np.array_equal(h, x)
                           for h, x in zip(hier, linear)), (w, m)
                for rail_optimized in (True, False):
                    topo = replace(ndv4_topology(w, m),
                                   rail_optimized=rail_optimized)
                    for algorithm, mover in (
                            (A2AAlgorithm.LINEAR, linear_a2a),
                            (A2AAlgorithm.TWO_DH,
                             lambda x, t: all_to_all_2dh_phases(x, m, t))):
                        traffic = Traffic(topo)
                        mover(world, traffic)
                        closed = a2a_schedule(topo, world[0].nbytes,
                                              algorithm)
                        assert tuple(traffic.phases) == closed.phases, \
                            (w, m, rail_optimized, algorithm)

    def test_linear_counts_every_link_class(self):
        traffic = Traffic(ndv4_topology(16, 4))
        linear_a2a(make_world(16), traffic)
        # 3 peers in the node, 3 on-rail and 9 cross-rail, 24 B each.
        assert [(p.link.value, p.messages, p.nbytes)
                for p in traffic.phases] == [
            ("intra", 3, 24), ("rail", 3, 24), ("cross", 9, 24)]


class TestFlexibleA2A:
    """Table 3 layout semantics."""

    def test_dispatch_layout(self):
        # (E, dC, M) -> (dE, C, M) with E=4, dC=3, M=2, W=4.
        w, e, dc, m = 4, 4, 3, 2
        rng = np.random.default_rng(0)
        world = [rng.normal(size=(e, dc, m)) for _ in range(w)]
        out = flexible_all_to_all(world, concat_dim=1, split_dim=0)
        assert out[0].shape == (e // w, w * dc, m)

    def test_combine_inverts_dispatch(self):
        w, e, dc, m = 4, 8, 3, 2
        rng = np.random.default_rng(1)
        world = [rng.normal(size=(e, dc, m)) for _ in range(w)]
        dispatched = flexible_all_to_all(world, concat_dim=1, split_dim=0)
        combined = flexible_all_to_all(dispatched, concat_dim=0,
                                       split_dim=1)
        for r in range(w):
            np.testing.assert_allclose(combined[r], world[r])

    def test_expert_slices_routed_correctly(self):
        # Rank r must receive expert slice [r*dE, (r+1)*dE) from all.
        w, e, dc, m = 2, 4, 1, 1
        world = [np.arange(e * dc * m, dtype=float).reshape(e, dc, m)
                 + 100 * r for r in range(w)]
        out = flexible_all_to_all(world, concat_dim=1, split_dim=0)
        # Rank 1 gets experts 2,3 of rank 0 then of rank 1, along C.
        np.testing.assert_allclose(out[1][:, 0, 0], [2, 3])
        np.testing.assert_allclose(out[1][:, 1, 0], [102, 103])

    def test_matches_plain_a2a_reshaped(self):
        # flex_all2all(x, 1, 0) equals the plain A2A output
        # (W, dE, dC, M) re-laid-out to (dE, W*dC, M).
        w, e, dc, m = 4, 8, 2, 3
        de = e // w
        rng = np.random.default_rng(2)
        world = [rng.normal(size=(e, dc, m)) for _ in range(w)]
        flex = flexible_all_to_all(world, concat_dim=1, split_dim=0)
        plain = linear_a2a([x.reshape(w, de, dc, m)
                                   for x in world])
        for r in range(w):
            expected = plain[r].transpose(1, 0, 2, 3).reshape(de,
                                                              w * dc, m)
            np.testing.assert_allclose(flex[r], expected)

    def test_rejects_indivisible_split(self):
        world = [np.zeros((3, 2, 2)) for _ in range(2)]
        with pytest.raises(ValueError):
            flexible_all_to_all(world, concat_dim=1, split_dim=0)

    def test_rejects_bad_dims(self):
        world = [np.zeros((4, 2)) for _ in range(2)]
        with pytest.raises(ValueError):
            flexible_all_to_all(world, concat_dim=5, split_dim=0)


class TestRingCollectives:
    def test_all_gather(self):
        world = [np.full((2, 2), r, dtype=float) for r in range(3)]
        out = all_gather(world)
        assert out[0].shape == (6, 2)
        for r in range(3):
            np.testing.assert_allclose(out[r], out[0])

    def test_reduce_scatter_sums(self):
        world = [np.ones((4, 2)) * (r + 1) for r in range(2)]
        out = reduce_scatter(world)
        assert out[0].shape == (2, 2)
        np.testing.assert_allclose(out[0], 3.0)

    def test_reduce_scatter_then_gather_is_allreduce(self):
        rng = np.random.default_rng(3)
        world = [rng.normal(size=(4, 3)) for _ in range(4)]
        rs = reduce_scatter(world)
        ag = all_gather(rs)
        for r in range(4):
            np.testing.assert_allclose(ag[r], np.sum(world, axis=0))

    def test_reduce_scatter_rejects_indivisible(self):
        with pytest.raises(ValueError):
            reduce_scatter([np.zeros((3, 2)) for _ in range(2)])
