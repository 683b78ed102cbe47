"""repro — reproduction of "Tutel: Adaptive Mixture-of-Experts at Scale".

The package splits into a *functional substrate* that really computes
(NumPy MoE layers, a small autograd engine, trainable models) and a
*performance substrate* that models a GPU cluster (topology, cost
models, a discrete-event simulator) so the paper's scaling experiments
can be regenerated without 2,048 A100s.  Package ``__init__`` modules
re-export nothing: import each name from the module that defines it.

Quickstart::

    import numpy as np
    from repro.autograd.tensor import Tensor
    from repro.nn.moe import MoE

    rng = np.random.default_rng(0)
    layer = MoE(model_dim=64, hidden_dim=256, num_experts=8, rng=rng)
    layer.freeze()
    out, l_aux = layer(Tensor(rng.normal(size=(128, 64))))
    print(out.shape, float(l_aux.data))
"""

__version__ = "0.1.0"
