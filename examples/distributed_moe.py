"""Distributed MoE with Flexible All-to-All over simulated ranks.

Walks through the complete data path of paper Figure 2 on 4 simulated
GPUs with 8 global experts, runs the switchable P1 and P2 layouts
(Figures 11-12) on 8 GPUs serving 2 experts, then demonstrates the 2DH
All-to-All producing bit-identical results to the linear algorithm
while moving only aggregated messages (Figure 15 / Algorithm 3).  Every
multi-rank forward runs the single-process layer, ``repro.nn.moe.MoE``,
and must match its own forward to float32 tolerance.

Run:  python examples/distributed_moe.py
"""

import numpy as np

from repro.autograd.tensor import Tensor
from repro.cluster.topology import ndv4_topology
from repro.collectives.functional import (
    Traffic,
    all_to_all_2dh_phases,
    flexible_all_to_all,
)
from repro.collectives.schedule import A2AAlgorithm, a2a_schedule
from repro.core.config import MoEConfig
from repro.moe.distributed import distributed_moe_forward
from repro.nn.moe import MoE
from repro.parallel.functional import p1_forward, p2_forward

# Max deviation allowed between a multi-rank forward and the layer's
# own forward: float32 roundoff, as tests/test_properties.py allows.
TOLERANCE = 1e-4


def frozen_layer(cfg, rng):
    """The single-process layer every multi-rank forward runs."""
    layer = MoE(cfg.model_dim, cfg.hidden_dim, cfg.num_global_experts,
                rng, top_k=cfg.top_k, capacity_factor=cfg.capacity_factor)
    layer.freeze()
    return layer


def check(name, outputs, layer, rank_inputs):
    """Print and assert the max deviation from the layer's forward."""
    err = max(float(np.abs(out - layer(Tensor(x))[0].data).max())
              for out, x in zip(outputs, rank_inputs))
    print(f"{name}: max deviation vs single-process = {err:.2e}")
    assert err <= TOLERANCE, f"{name} deviates by {err:.2e}"


def main():
    rng = np.random.default_rng(0)
    cfg = MoEConfig(world_size=4, experts_per_gpu=2, model_dim=32,
                    hidden_dim=64, tokens_per_gpu=64, top_k=2,
                    capacity_factor=4.0)
    layer = frozen_layer(cfg, rng)
    rank_inputs = [rng.normal(size=(64, 32)).astype(np.float32)
                   for _ in range(4)]

    # Full distributed forward: encode -> flexible A2A -> local experts
    # -> flexible A2A -> decode, with real data movement.
    result = distributed_moe_forward(rank_inputs, layer, cfg)
    print(f"per-rank outputs: {[o.shape for o in result.outputs]}")
    print(f"aux loss {result.l_aux:.3f}, dropped "
          f"{result.dropped_fraction:.1%}")
    check("expert-parallel", result.outputs, layer, rank_inputs)

    # P1 (replicas all-gathered from column shards) and P2 (computing
    # on the column shards): W = 8 GPUs serve E = 2 experts, r = 4 GPUs
    # per expert, one placement for both
    # (tests/test_parallel_functional.py::TestParameterPlacement::
    # test_switching_moves_no_parameter).
    cfg = cfg.with_(world_size=8, experts_per_gpu=0.25)
    layer = frozen_layer(cfg, rng)
    rank_inputs = [rng.normal(size=(64, 32)).astype(np.float32)
                   for _ in range(8)]
    for name, forward in (("P1", p1_forward), ("P2", p2_forward)):
        check(name, forward(rank_inputs, layer, cfg), layer, rank_inputs)

    # Table 3 layouts: (E, dC, M) -> (dE, C, M) and back.
    dispatch = [rng.normal(size=(8, 3, 5)) for _ in range(4)]
    expert_layout = flexible_all_to_all(dispatch, concat_dim=1,
                                        split_dim=0)
    print(f"\nflexible A2A: {dispatch[0].shape} -> "
          f"{expert_layout[0].shape}  (scale-independent expert input)")

    # 2DH All-to-All phase-by-phase on 8 ranks / 2 nodes (Figure 15).
    world = [np.array([10 * src + dst for dst in range(8)]).reshape(8, 1)
             for src in range(8)]
    traffic = Traffic(ndv4_topology(8, gpus_per_node=4))
    phases = all_to_all_2dh_phases(world, gpus_per_node=4, traffic=traffic)
    print("\n2DH All-to-All, GPU0's buffer per phase:")
    for i, phase in enumerate(phases):
        print(f"  phase {i}: {phase[0].ravel().tolist()}")
    linear = flexible_all_to_all(world, 0, 0)
    same = all(np.array_equal(phases[-1][r], linear[r]) for r in range(8))
    print(f"2DH == linear: {same}")
    # What the mover moved is what the cost model prices.
    closed = a2a_schedule(traffic.topo, world[0].nbytes, A2AAlgorithm.TWO_DH)
    print(f"counted traffic == closed form: "
          f"{tuple(traffic.phases) == closed.phases}")


if __name__ == "__main__":
    main()
