"""Figure 21 — NCCL vs MSCCL-optimized implementations of 2DH.

The MSCCL DSL-compiled schedule fuses the four phases (no inter-phase
barriers) and can use the LL128 protocol, which wins at small sizes
while the Simple protocol wins at large ones.
"""

from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.cluster.topology import ndv4_topology
from repro.collectives.schedule import A2AAlgorithm, Impl, Protocol, a2a_time
from repro.core.units import MIB, fmt_time

WORLDS = (64, 256, 1024)
TWO_DH = A2AAlgorithm.TWO_DH
SIZES = (1 * MIB, 32 * MIB, 256 * MIB)


def run(verbose: bool = True):
    results = {}
    for world in WORLDS:
        topo = ndv4_topology(world)
        table = Table(
            f"Figure 21: 2DH implementations at {world} GPUs",
            ["size", "linear (NCCL)", "2DH (NCCL)", "2DH (MSCCL)",
             "2DH (MSCCL+LL128)"])
        for total in SIZES:
            row = (
                a2a_time(topo, total, A2AAlgorithm.LINEAR),
                a2a_time(topo, total, TWO_DH, impl=Impl.NCCL),
                a2a_time(topo, total, TWO_DH, impl=Impl.MSCCL),
                a2a_time(topo, total, TWO_DH, Protocol.LL128, Impl.MSCCL),
            )
            results[(world, total)] = row
            table.add_row(f"{total // MIB} MiB",
                          *[fmt_time(t) for t in row])
        if verbose:
            table.show()
    emit("fig21", "Figure 21: NCCL vs MSCCL 2DH implementations", [
        Metric("msccl_gain_256gpus_1mib",
               results[(256, 1 * MIB)][1] / results[(256, 1 * MIB)][2],
               "x", higher_is_better=True),
        Metric("ll128_gain_256gpus_1mib",
               results[(256, 1 * MIB)][2] / results[(256, 1 * MIB)][3],
               "x", higher_is_better=True),
        Metric("msccl_recovery_64gpus_256mib",
               results[(64, 256 * MIB)][1] / results[(64, 256 * MIB)][2],
               "x", higher_is_better=True),
    ], config={"worlds": list(WORLDS),
               "sizes_mib": [s // MIB for s in SIZES]})
    return results


def test_bench_fig21(once):
    results = once(run, verbose=False)
    for (world, total), (linear, nccl, msccl, ll128) in results.items():
        # Fusing phases always helps.
        assert msccl < nccl
    # LL128 wins small sizes, Simple wins large sizes (paper text).
    assert results[(256, 1 * MIB)][3] < results[(256, 1 * MIB)][2]
    assert results[(64, 256 * MIB)][2] < results[(64, 256 * MIB)][3]
    # The paper's example: 256 MiB on 64 GPUs — NCCL-2DH loses to
    # linear, but the optimized implementation recovers (or nearly).
    linear, nccl, msccl, _ = results[(64, 256 * MIB)]
    assert nccl > linear
    assert msccl < nccl


if __name__ == "__main__":
    run()
