"""Quickstart: build and run a Tutel-style MoE layer.

Mirrors the paper's Figure 8 API walk-through: gate -> top-k routing
-> fast encode -> expert fflayer -> fast decode, plus the dynamic
features (top-ANY routing and adaptive capacity) of Section 4.1, all
through the one MoE layer, ``repro.nn.moe.MoE``.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.moe import MoE


def main():
    rng = np.random.default_rng(0)
    layer = MoE(model_dim=64, hidden_dim=256, num_experts=8, rng=rng,
                top_k=2)
    layer.freeze()  # inference: no tape is built
    tokens = Tensor(rng.normal(size=(512, 64)))

    out, l_aux = layer(tokens)
    print(f"output shape:          {out.shape}")
    print(f"aux (load-balance) loss: {float(l_aux.data):.3f}")
    print(f"capacity per expert:   {layer.last_routing_criteria.capacity}")
    print(f"dropped token-slots:   "
          f"{layer.last_routing_stats.dropped_fraction:.1%}")

    # Dynamic top-ANY routing: change k per call (Section 4.1).
    for k in (1, 2, 4):
        _, l_aux = layer(tokens, top_k=k)
        print(f"top-{k}: dropped="
              f"{layer.last_routing_stats.dropped_fraction:.1%} "
              f"l_aux={float(l_aux.data):.3f}")

    # Dynamic capacity factor semantics (Figure 16):
    #   f > 0 fixed; f = 0 adapt losslessly; f < 0 adapt with bound.
    for f in (4.0, 0.0, -1.0):
        layer(tokens, capacity_factor=f)
        print(f"capacity_factor={f:+.1f}: effective "
              f"f={layer.last_effective_capacity_factor:.2f} "
              f"capacity={layer.last_routing_criteria.capacity} "
              f"dropped={layer.last_routing_stats.dropped_fraction:.1%}")


if __name__ == "__main__":
    main()
