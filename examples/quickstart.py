"""Quickstart: build and run a Tutel-style MoE layer.

Mirrors the paper's Figure 8 API walk-through: gate -> top-k routing
-> fast encode -> expert fflayer -> fast decode, plus the dynamic
features (top-ANY routing and adaptive capacity) of Section 4.1.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.moe.capacity import CapacityPolicy
from repro.moe.layer import MoELayerParams, moe_layer_forward


def main():
    rng = np.random.default_rng(0)
    params = MoELayerParams.init(num_experts=8, model_dim=64,
                                 hidden_dim=256, rng=rng, top_k=2)
    tokens = rng.normal(size=(512, 64))

    out = moe_layer_forward(tokens, params)
    print(f"output shape:          {out.output.shape}")
    print(f"aux (load-balance) loss: {out.l_aux:.3f}")
    print(f"capacity per expert:   {out.crit.capacity}")
    print(f"dropped token-slots:   {out.dropped_fraction:.1%}")

    # Dynamic top-ANY routing: change k per call (Section 4.1).
    for k in (1, 2, 4):
        out_k = moe_layer_forward(tokens, params, top_k=k)
        print(f"top-{k}: dropped={out_k.dropped_fraction:.1%} "
              f"l_aux={out_k.l_aux:.3f}")

    # Dynamic capacity factor semantics (Figure 16):
    #   f > 0 fixed; f = 0 adapt losslessly; f < 0 adapt with bound.
    for f in (4.0, 0.0, -1.0):
        out_f = moe_layer_forward(tokens, params,
                                  capacity=CapacityPolicy(f))
        print(f"capacity_factor={f:+.1f}: effective "
              f"f={out_f.effective_capacity_factor:.2f} "
              f"capacity={out_f.crit.capacity} "
              f"dropped={out_f.dropped_fraction:.1%}")


if __name__ == "__main__":
    main()
