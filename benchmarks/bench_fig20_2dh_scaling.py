"""Figure 20 — linear vs 2DH All-to-All latency, 64 to 4,096 GPUs.

The paper's headline communication result: 2DH wins for small messages
from small scales, loses at large-message/small-scale (extra copies),
and wins everywhere once the world is large; NCCL's linear algorithm
could not even run at 4,096 GPUs.
"""

from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.cluster.topology import ndv4_topology
from repro.collectives.schedule import A2AAlgorithm, a2a_time
from repro.core.units import MIB, fmt_time

WORLDS = (64, 128, 256, 512, 1024, 2048, 4096)
SIZES = (1 * MIB, 32 * MIB, 256 * MIB)


def run(verbose: bool = True):
    results = {}
    for total in SIZES:
        table = Table(
            f"Figure 20: All-to-All latency at S = {total // MIB} MiB",
            ["#GPUs", "linear", "naive local agg", "2DH",
             "2DH speedup"])
        rows = {}
        for world in WORLDS:
            topo = ndv4_topology(world)
            linear = a2a_time(topo, total, A2AAlgorithm.LINEAR)
            naive = a2a_time(topo, total, A2AAlgorithm.NAIVE_LOCAL_AGG)
            twodh = a2a_time(topo, total, A2AAlgorithm.TWO_DH)
            rows[world] = (linear, naive, twodh)
            table.add_row(world, fmt_time(linear), fmt_time(naive),
                          fmt_time(twodh), f"{linear / twodh:.2f}x")
        results[total] = rows
        if verbose:
            table.show()
    if verbose:
        best = max(rows[0] / rows[2] for rows in
                   [results[1 * MIB][w] for w in (1024, 2048)])
        print(f"Max small-message 2DH speedup at 1-2K GPUs: {best:.1f}x "
              "(paper: up to 20.7x)")
    emit("fig20", "Figure 20: linear vs 2DH All-to-All scaling", [
        Metric("twodh_speedup_1mib_2048",
               results[1 * MIB][2048][0] / results[1 * MIB][2048][2],
               "x", higher_is_better=True),
        Metric("twodh_speedup_256mib_2048",
               results[256 * MIB][2048][0] / results[256 * MIB][2048][2],
               "x", higher_is_better=True),
        Metric("linear_advantage_256mib_64",
               results[256 * MIB][64][2] / results[256 * MIB][64][0],
               "x"),
    ], config={"worlds": list(WORLDS), "sizes_mib": [s // MIB for s in SIZES]})
    return results


def test_bench_fig20(once):
    results = once(run, verbose=False)
    # Small size: 2DH wins everywhere.
    for world in WORLDS:
        linear, _, twodh = results[1 * MIB][world]
        assert twodh < linear
    # Large size: linear wins at 64 GPUs, 2DH at 2,048.
    assert results[256 * MIB][64][0] < results[256 * MIB][64][2]
    assert results[256 * MIB][2048][2] < results[256 * MIB][2048][0]


if __name__ == "__main__":
    run()
