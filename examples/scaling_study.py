"""Scaling study: a single MoE layer from 16 to 2,048 simulated GPUs.

Condenses the paper's headline performance results into one script:
the collective crossover (Figure 20), the Fairseq-vs-Tutel layer time
(Figure 23) and where each Tutel feature earns its keep.

Run:  python examples/scaling_study.py
"""

from repro.bench.harness import Table
from repro.cluster.topology import ndv4_topology
from repro.collectives.schedule import best_a2a_algorithm
from repro.core.config import MoEConfig
from repro.core.units import MIB, fmt_time
from repro.runtime.plan import FAIRSEQ_FEATURES, TUTEL_FEATURES, moe_step_time


def main():
    worlds = (16, 64, 256, 1024, 2048)

    algo_table = Table("Best All-to-All algorithm per (size, scale)",
                       ["#GPUs", "1 MiB", "32 MiB", "256 MiB"])
    for world in worlds:
        topo = ndv4_topology(world)
        row = [best_a2a_algorithm(topo, s * MIB)[0].value
               for s in (1, 32, 256)]
        algo_table.add_row(world, *row)
    algo_table.show()

    layer_table = Table("Single MoE layer step time (training)",
                        ["#GPUs", "fairseq", "tutel", "speedup",
                         "tutel pipeline", "tutel parallelism"])
    for world in worlds:
        cfg = MoEConfig(world_size=world, experts_per_gpu=2,
                        model_dim=2048, hidden_dim=2048,
                        tokens_per_gpu=16384, top_k=2,
                        capacity_factor=1.0)
        topo = ndv4_topology(world)
        fair = moe_step_time(cfg, topo, FAIRSEQ_FEATURES)
        tutel = moe_step_time(cfg, topo, TUTEL_FEATURES)
        layer_table.add_row(world, fmt_time(fair.total),
                            fmt_time(tutel.total),
                            f"{fair.total / tutel.total:.2f}x",
                            tutel.pipeline_strategy.describe(),
                            tutel.parallelism.value)
    layer_table.show()
    print("Paper anchors: 4.96x at 16 GPUs, 5.75x at 2,048 GPUs "
          "(Figure 23).")


if __name__ == "__main__":
    main()
