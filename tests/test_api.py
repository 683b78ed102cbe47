"""The paper's Figure 8 custom layer, composed from the live internals.

The paper's snippet reads::

    scores = softmax(CustomGate(x), dim=1)
    crit, l_aux = moe.top_k_routing(scores, top_k)
    y = moe.fast_encode(x, crit)
    y = net.flex_all2all(y, 1, 0)
    y = CustomExpert(y)
    y = net.flex_all2all(y, 0, 1)
    output = moe.fast_decode(y, crit)

Here each step is the function the packaged layer runs: ``route`` for
``top_k_routing``, ``fast_encode`` / ``fast_decode`` and
``flexible_all_to_all`` over a one-rank world list.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.collectives.functional import flexible_all_to_all
from repro.core.substrate import substrate_dtype
from repro.moe.capacity import CapacityPolicy
from repro.moe.encode import fast_decode, fast_encode
from repro.moe.ffn import ffn_forward_arrays
from repro.moe.gating import softmax
from repro.nn.moe import MoE, route


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def expert_ffn(y, experts):
    """The snippet's ``CustomExpert``: the fused expert FFN, padded."""
    return ffn_forward_arrays(y, *experts, "gelu")[0]


def custom_moe(x, gate_weight, experts, top_k=2):
    """The paper's Figure 8 custom layer."""
    routing = route(softmax(x @ gate_weight), top_k, CapacityPolicy(1.0))
    crit = routing.crit.with_gates(routing.gates)
    y = fast_encode(x, crit)
    y = flexible_all_to_all([y], 1, 0)[0]
    y = expert_ffn(y, experts)          # CustomExpert
    y = flexible_all_to_all([y], 0, 1)[0]
    return fast_decode(y, crit), float(routing.l_aux)


class TestFigure8Api:
    def test_snippet_runs(self, rng):
        gate = rng.normal(size=(16, 4))
        experts = (rng.normal(size=(4, 16, 32)), rng.normal(size=(4, 32, 16)))
        x = rng.normal(size=(64, 16))
        out, l_aux = custom_moe(x, gate, experts)
        assert out.shape == (64, 16)
        assert l_aux > 0

    def test_matches_layer_forward(self, rng):
        # The composition must agree with the packaged layer, nn.MoE, at
        # k = 1 and k > 1.
        with substrate_dtype(np.float64):
            layer = MoE(16, 32, 4, rng, capacity_factor=1.0)
        layer.freeze()
        experts = (layer.w1.data, layer.w2.data)
        x = rng.normal(size=(64, 16))
        for k in (1, 2):
            out, l_aux = custom_moe(x, layer.gate.weight.data, experts,
                                    top_k=k)
            expected, expected_aux = layer(Tensor(x, dtype=x.dtype),
                                           top_k=k)
            np.testing.assert_allclose(out, expected.data, atol=1e-10)
            assert l_aux == pytest.approx(float(expected_aux.data),
                                          abs=1e-12)

    def test_flex_all2all_single_rank_roundtrip(self, rng):
        y = rng.normal(size=(4, 3, 5))
        there = flexible_all_to_all([y], 1, 0)
        back = flexible_all_to_all(there, 0, 1)
        np.testing.assert_allclose(back[0], y)

    def test_flex_all2all_world_list(self, rng):
        world = [rng.normal(size=(4, 3, 5)) for _ in range(2)]
        out = flexible_all_to_all(world, 1, 0)
        assert len(out) == 2
        assert out[0].shape == (2, 6, 5)

    def test_top_k_routing_capacity_semantics(self, rng):
        scores = softmax(rng.normal(size=(64, 8)))
        crit = route(scores, 2, CapacityPolicy(0.0)).crit
        assert crit.dropped_fraction() == 0.0
        crit = route(scores, 2, CapacityPolicy(0.25)).crit
        assert crit.dropped_fraction() > 0.0
