"""Figure 6 — under-utilized bandwidth for small messages.

(a) GPUDirect-RDMA write bandwidth vs message size on HDR InfiniBand;
(b) All-to-All bus bandwidth from 64 to 2,048 GPUs at fixed sizes.
"""

from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.cluster.linkmodel import a2a_bus_bandwidth, ib_write_bandwidth_curve
from repro.cluster.topology import ndv4_topology
from repro.collectives.schedule import A2AAlgorithm, a2a_time
from repro.core.units import GIB, KIB, MIB, fmt_bytes, fmt_rate


def run(verbose: bool = True):
    topo = ndv4_topology(64)
    sizes = [2 ** i * KIB for i in range(0, 19, 2)]
    curve = ib_write_bandwidth_curve(topo.inter_link, sizes)
    fig_a = Table("Figure 6a: ib_write_bw over HDR InfiniBand",
                  ["message size", "effective bandwidth", "fraction of peak"])
    for size, bw in zip(sizes, curve):
        fig_a.add_row(fmt_bytes(size), fmt_rate(bw),
                      f"{bw / topo.inter_link.bandwidth:.1%}")

    fig_b = Table("Figure 6b: All-to-All bus bandwidth (nccl-tests)",
                  ["#GPUs", "S=1 MiB", "S=32 MiB", "S=1 GiB"])
    worlds = (64, 128, 256, 512, 1024, 2048)
    series = {}
    for world in worlds:
        t = ndv4_topology(world)
        row = []
        for total in (1 * MIB, 32 * MIB, 1 * GIB):
            elapsed = a2a_time(t, total, A2AAlgorithm.LINEAR)
            row.append(a2a_bus_bandwidth(t, total, elapsed))
        series[world] = row
        fig_b.add_row(world, *[fmt_rate(v) for v in row])

    if verbose:
        fig_a.show()
        fig_b.show()
        print("Shape check: busbw collapses with scale at small S "
              "(paper Figure 6b).")
    emit("fig06", "Figure 6: small-message bandwidth under-utilization", [
        Metric("busbw_1mib_64gpus", series[64][0] / 1e9, "GB/s"),
        Metric("busbw_1mib_2048gpus", series[2048][0] / 1e9, "GB/s"),
        Metric("busbw_1gib_2048gpus", series[2048][2] / 1e9, "GB/s"),
        Metric("small_msg_collapse_ratio", series[64][0] / series[2048][0],
               "x", higher_is_better=None),
    ], config={"worlds": list(worlds), "sizes_kib_max": sizes[-1] // KIB})
    return {"curve": list(zip(sizes, curve)), "busbw": series}


def test_bench_fig06(once):
    result = once(run, verbose=False)
    bws = result["busbw"]
    # Small messages: bus bandwidth collapses as the world grows.
    assert bws[2048][0] < bws[64][0]
    # Large messages: stays within one order of magnitude.
    assert bws[2048][2] > 0.1 * bws[64][2]


if __name__ == "__main__":
    run()
