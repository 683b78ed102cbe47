"""Ablation — 2DH hierarchy width and the Section 4.3 extensions.

(a) Local group size m = 8 (NDv4) vs m = 256 (next-gen NVSwitch): with
    a wider first level, the inter-node fan-out n/m stays tiny even at
    32K GPUs, extending 2DH's reach toward the 100K-GPU regime the
    paper sketches.
(b) A 3-level hierarchy (3DH: intra-node, intra-group, inter-group) for
    dragonfly-style topologies, modelled by composing the aggregation
    arithmetic once more.
"""

from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.cluster.topology import ndv4_topology, nvswitch256_topology
from repro.collectives.schedule import A2AAlgorithm, Impl, a2a_time
from repro.core.units import MIB, fmt_time

WORLDS = (2048, 8192, 32768)
SIZE = 8 * MIB


def run(verbose: bool = True):
    table = Table(f"Ablation: hierarchy width at S = {SIZE // MIB} MiB",
                  ["#GPUs", "linear (m=8)", "2DH (m=8)", "2DH (m=256)",
                   "3DH (m=8, g=16)"])
    results = {}
    for world in WORLDS:
        t8 = ndv4_topology(world)
        t256 = nvswitch256_topology(world)
        row = (a2a_time(t8, SIZE, A2AAlgorithm.LINEAR),
               a2a_time(t8, SIZE, A2AAlgorithm.TWO_DH),
               a2a_time(t256, SIZE, A2AAlgorithm.TWO_DH),
               # 3DH is modelled as the fused MSCCL schedule.
               a2a_time(t8, SIZE, A2AAlgorithm.THREE_DH, impl=Impl.MSCCL))
        results[world] = row
        table.add_row(world, *[fmt_time(t) for t in row])
    if verbose:
        table.show()
        print("Wider local domains (m = 256) and a third level keep "
              "the long-haul message count small at extreme scales — "
              "the Section 4.3 extension path.")
    biggest = results[WORLDS[-1]]
    emit("abl_hierarchy", "Ablation: 2DH hierarchy width", [
        Metric("wide_domain_gain_32768", biggest[1] / biggest[2], "x",
               higher_is_better=True),
        Metric("threedh_gain_32768", biggest[1] / biggest[3], "x",
               higher_is_better=True),
    ], config={"worlds": list(WORLDS), "size_mib": SIZE // MIB})
    return results


def test_bench_abl_hierarchy(once):
    results = once(run, verbose=False)
    for world, (linear, twodh8, twodh256, threedh) in results.items():
        assert twodh8 < linear
        # The wider NVSwitch domain strictly helps at these scales.
        assert twodh256 < twodh8
    # The third level pays off at the largest scale.
    biggest = results[WORLDS[-1]]
    assert biggest[3] < biggest[1]


if __name__ == "__main__":
    run()
