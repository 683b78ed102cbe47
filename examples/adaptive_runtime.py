"""Adaptivity in action: the runtime reacting to a dynamic workload.

Replays a SwinV2-shaped capacity-factor trace (Figure 1) through the
two adaptive mechanisms of the paper:

* the inline parallelism choice (``best_strategy``) flips between P1
  (EP+DP) and P2 (EP+MP) as the token volume crosses the parameter
  volume;
* the online pipelining search (Algorithm 2) explores (All-to-All
  algorithm x degree) pairs bucket-by-bucket and converges to the best
  strategy for each workload regime.

Run:  python examples/adaptive_runtime.py
"""

from collections import Counter

from repro.cluster.topology import ndv4_topology
from repro.core.config import MoEConfig
from repro.models.workload import dynamic_capacity_trace
from repro.parallel.strategy import best_strategy
from repro.pipeline.adaptive import OnlinePipeliningSearch
from repro.pipeline.schedule import PipelineStrategy, pipeline_segment_time


def main():
    # A single node, two experts shared by eight GPUs (r = 4): the
    # regime where the P1/P2 preference flips with the capacity factor
    # (paper Figure 3 / Table 5a).
    world = 8
    topo = ndv4_topology(world)
    base = MoEConfig(world_size=world, experts_per_gpu=0.25,
                     model_dim=2048, hidden_dim=8192,
                     tokens_per_gpu=2048, top_k=2, capacity_factor=1.0)

    trace = dynamic_capacity_trace(steps=200, layer_index=0, seed=1)
    parallelism_choices = Counter()
    switches = 0
    previous = None
    for step, f in enumerate(trace):
        chosen = best_strategy(base.with_(capacity_factor=float(f)),
                               topo).strategy
        parallelism_choices[chosen.value] += 1
        switches += previous is not None and chosen is not previous
        previous = chosen
        if step % 40 == 0:
            print(f"step {step:3d}: f={f:5.2f} -> "
                  f"parallelism={chosen.value}")
    print(f"parallelism choices: {dict(parallelism_choices)}")
    print(f"parallelism switches: {switches}")

    # Adaptive pipelining pays off where All-to-All is expensive:
    # scale out to 256 GPUs across 32 nodes.
    world = 256
    topo = ndv4_topology(world)
    wide = MoEConfig(world_size=world, experts_per_gpu=2,
                     model_dim=2048, hidden_dim=2048,
                     tokens_per_gpu=4096, top_k=2, capacity_factor=1.0)
    search = OnlinePipeliningSearch(bucket_length=1.0)
    pipeline_choices = Counter()
    static_time = 0.0
    adaptive_time = 0.0
    baseline = PipelineStrategy(degree=1)

    print(f"\nadaptive pipelining at {world} GPUs:")
    for step, f in enumerate(trace):
        cfg = wide.with_(capacity_factor=float(f))
        strategy, elapsed = search.step(
            float(f), lambda s: pipeline_segment_time(cfg, topo, s))
        pipeline_choices[strategy.describe()] += 1
        adaptive_time += elapsed
        static_time += pipeline_segment_time(cfg, topo, baseline)
        if step % 40 == 0:
            print(f"step {step:3d}: f={f:5.2f} "
                  f"pipeline={strategy.describe():14s} "
                  f"segment={elapsed * 1e3:6.2f} ms")

    print(f"pipeline choices:    {dict(pipeline_choices)}")
    print(f"\ncumulative segment time: static deg1+linear "
          f"{static_time:.2f} s -> adaptive {adaptive_time:.2f} s "
          f"({(static_time - adaptive_time) / static_time:.0%} saved, "
          "including exploration)")


if __name__ == "__main__":
    main()
