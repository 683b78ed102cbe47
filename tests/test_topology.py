"""Tests for the cluster topology and link models."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.linkmodel import (
    a2a_bus_bandwidth,
    contiguous_memcpy_time,
    ib_write_bandwidth_curve,
    stride_memcpy_time,
)
from repro.cluster.topology import (
    ClusterTopology,
    GpuSpec,
    LinkSpec,
    ndv4_topology,
    nvswitch256_topology,
)
from repro.core.units import GIB, KIB, MIB


@pytest.fixture
def link():
    return LinkSpec(bandwidth=25e9, latency=4e-6, message_overhead=3e-6)


class TestLinkSpec:
    def test_message_time_components(self, link):
        t = link.message_time(25e9)  # 1 second of payload
        assert t == pytest.approx(1.0 + 4e-6 + 3e-6)

    def test_zero_bytes_free(self, link):
        assert link.message_time(0) == 0.0

    def test_stream_time_pays_overhead_per_message(self, link):
        one = link.stream_time(1024, 1)
        ten = link.stream_time(1024, 10)
        assert ten > 9 * (one - link.latency)

    def test_stream_time_zero_messages(self, link):
        assert link.stream_time(1024, 0) == 0.0

    def test_effective_bandwidth_saturates(self, link):
        small = link.effective_bandwidth(1 * KIB)
        large = link.effective_bandwidth(256 * MIB)
        assert small < 0.1 * link.bandwidth
        assert large > 0.95 * link.bandwidth

    def test_effective_bandwidth_monotone(self, link):
        sizes = [2 ** i * KIB for i in range(16)]
        curve = [link.effective_bandwidth(s) for s in sizes]
        assert curve == sorted(curve)

    def test_rejects_negative_size(self, link):
        with pytest.raises(ValueError):
            link.message_time(-1)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=0, latency=0, message_overhead=0)

    @given(nbytes=st.floats(1, 1e9), n=st.integers(1, 1000))
    def test_stream_time_positive_and_additive(self, nbytes, n):
        link = LinkSpec(bandwidth=25e9, latency=4e-6,
                        message_overhead=3e-6)
        t = link.stream_time(nbytes, n)
        assert t > 0
        assert t >= n * nbytes / link.bandwidth


class TestTopology:
    def test_node_mapping(self):
        topo = ndv4_topology(32)
        assert topo.num_nodes == 4
        assert topo.node_of(0) == 0
        assert topo.node_of(8) == 1
        assert topo.same_node(0, 7)
        assert not topo.same_node(7, 8)

    def test_link_between(self):
        topo = ndv4_topology(16)
        assert topo.link_between(0, 1) is topo.intra_link
        assert topo.link_between(0, 9) is topo.inter_link

    def test_rank_bounds(self):
        topo = ndv4_topology(8)
        with pytest.raises(ValueError):
            topo.node_of(8)
        with pytest.raises(ValueError):
            topo.node_of(-1)

    def test_local_size_small_world(self):
        assert ndv4_topology(4).local_size == 4
        assert ndv4_topology(64).local_size == 8

    def test_with_num_gpus(self):
        topo = ndv4_topology(8)
        bigger = topo.with_num_gpus(2048)
        assert bigger.num_gpus == 2048
        assert bigger.intra_link == topo.intra_link

    def test_nvlink_much_faster_than_ib(self):
        topo = ndv4_topology(16)
        assert topo.intra_link.bandwidth > 5 * topo.inter_link.bandwidth

    def test_nvswitch256_extension(self):
        topo = nvswitch256_topology(1024)
        assert topo.gpus_per_node == 256
        assert topo.num_nodes == 4

    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            ClusterTopology(num_gpus=0, gpus_per_node=8, gpu=GpuSpec(),
                            intra_link=LinkSpec(1, 0, 0),
                            inter_link=LinkSpec(1, 0, 0))


class TestMemoryMovement:
    def test_stride_copy_slower_for_small_chunks(self):
        gpu = GpuSpec()
        fast = stride_memcpy_time(gpu, 128 * MIB, 1 * MIB)
        slow = stride_memcpy_time(gpu, 128 * MIB, 512)
        assert slow > 3 * fast

    def test_stride_copy_zero_bytes(self):
        assert stride_memcpy_time(GpuSpec(), 0, 1024) == 0.0

    def test_contiguous_copy_time(self):
        gpu = GpuSpec()
        t = contiguous_memcpy_time(gpu, 1 * GIB)
        assert t == pytest.approx(gpu.kernel_launch_overhead
                                  + 2 * GIB / gpu.memory_bandwidth)

    def test_stride_penalty_monotone_in_chunk(self):
        # Smaller contiguous runs always cost more per byte (the
        # Section 3.4 chunk-shrink effect; the 600us -> 5ms growth is
        # asserted on the full naive local-aggregation model in
        # test_collectives_schedule).
        gpu = GpuSpec()
        times = [stride_memcpy_time(gpu, 128 * MIB, chunk)
                 for chunk in (512, 4 * KIB, 64 * KIB, 16 * MIB)]
        assert times == sorted(times, reverse=True)


class TestBandwidthCurves:
    def test_figure6a_underutilization(self):
        link = ndv4_topology(16).inter_link
        sizes = [2 ** i * KIB for i in range(0, 19)]  # 1 KiB .. 256 MiB
        curve = ib_write_bandwidth_curve(link, sizes)
        assert curve[0] < 0.05 * link.bandwidth      # 1 KiB: tiny
        assert curve[-1] > 0.95 * link.bandwidth     # 256 MiB: saturated
        assert curve == sorted(curve)

    def test_bus_bandwidth_definition(self):
        topo = ndv4_topology(8)
        # busbw = (S/n)*(n-1)/t
        assert a2a_bus_bandwidth(topo, 8e9, 1.0) == pytest.approx(
            1e9 * 7)

    def test_bus_bandwidth_rejects_zero_time(self):
        with pytest.raises(ValueError):
            a2a_bus_bandwidth(ndv4_topology(8), 1e9, 0.0)
