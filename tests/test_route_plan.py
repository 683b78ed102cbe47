"""The route plan against the mask-driven formulas it replaced.

Every consumer of :attr:`RoutingCriteria.plan` — the four sparse
encode/decode kernels, ``occupancy``, the load and drop metrics and
``routing_stats`` — must agree *bitwise* with the previous bodies,
which re-derived their index sets from ``valid & (gates != 0)`` masks.
Those bodies live on here as the oracle, run on hostile criteria: zero
gates on kept slots, fully dropped tokens, hand-built gapped, negative,
past-capacity or colliding locations, E = 1, T = 1, both dtypes.
"""

import pickle
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.moe.encode import (
    fast_decode,
    fast_decode_backward,
    fast_encode,
    fast_encode_backward,
)
from repro.moe.gating import RoutingCriteria, softmax
from repro.moe.metrics import (
    expert_load,
    load_gini,
    load_imbalance,
    routing_entropy,
    routing_stats,
)
from repro.nn.moe import route


# -- the oracle: mask-driven bodies ---------------------------------

def _valid(crit):
    return (crit.locations >= 0) & (crit.locations < crit.capacity)


def _flat_routes(crit):
    slots, tokens = np.nonzero(_valid(crit) & (crit.gates != 0))
    cells = (crit.idxs[slots, tokens] * crit.capacity
             + crit.locations[slots, tokens])
    return tokens, cells, crit.gates[slots, tokens]


def _slot_routes(crit):
    valid = _valid(crit) & (crit.gates != 0)
    for slot in range(crit.top_k):
        sel = valid[slot]
        toks = np.nonzero(sel)[0]
        if toks.size:
            cells = (crit.idxs[slot, sel] * crit.capacity
                     + crit.locations[slot, sel])
            yield toks, cells, crit.gates[slot, sel]


def oracle_encode(x, crit):
    tokens, cells, _ = _flat_routes(crit)
    out = np.zeros((crit.num_experts * crit.capacity, x.shape[1]), x.dtype)
    out[cells] = x[tokens]
    return out.reshape(crit.num_experts, crit.capacity, x.shape[1])


def oracle_encode_backward(grad, crit):
    flat = grad.reshape(-1, grad.shape[-1])
    grad_x = np.zeros((crit.num_tokens, grad.shape[-1]), grad.dtype)
    for toks, cells, _ in _slot_routes(crit):
        grad_x[toks] += flat[cells]
    return grad_x


def oracle_decode(z, crit):
    flat = z.reshape(-1, z.shape[-1])
    out = np.zeros((crit.num_tokens, z.shape[-1]), z.dtype)
    for toks, cells, gates in _slot_routes(crit):
        out[toks] += gates[:, None] * flat[cells]
    return out


def oracle_decode_backward(grad, z, crit):
    tokens, cells, gates = _flat_routes(crit)
    flat_z = z.reshape(-1, z.shape[-1])
    grad_z = np.zeros(flat_z.shape, flat_z.dtype)
    grad_z[cells] = gates[:, None] * grad[tokens]
    grad_gates = np.zeros_like(crit.gates)
    slots, toks = np.nonzero(_valid(crit) & (crit.gates != 0))
    grad_gates[slots, toks] = np.einsum(
        "rm,rm->r", grad[tokens], flat_z[cells])
    return grad_z.reshape(z.shape), grad_gates


def oracle_occupancy(crit):
    pos = crit.locations + 1
    pos[pos > crit.capacity] = 0
    rows = np.zeros(crit.num_experts, dtype=pos.dtype)
    np.maximum.at(rows, crit.idxs.ravel(), pos.ravel())
    return rows


def oracle_load(crit):
    return np.bincount(crit.idxs.reshape(-1), minlength=crit.num_experts)


def oracle_dropped_fraction(crit):
    if crit.locations.size == 0:
        return 0.0
    return 1.0 - int(np.count_nonzero(_valid(crit))) / crit.locations.size


def oracle_needed_capacity(crit):
    if crit.locations.size == 0:
        return 1
    return int(crit.locations.max()) + 1


def oracle_stats(crit, gate_probs):
    t = crit.num_tokens
    top1 = gate_probs.max(axis=1)
    load = oracle_load(crit)
    return dict(
        dropped_fraction=oracle_dropped_fraction(crit),
        load_imbalance=load_imbalance(crit, load),
        routing_entropy=routing_entropy(crit, load=load),
        needed_capacity=oracle_needed_capacity(crit),
        mean_top1_confidence=float(top1.dtype.type(float(top1.sum()) / t)),
        expert_load=tuple(load.tolist()),
        load_gini=load_gini(load))


# -- hostile criteria -------------------------------------------------

@st.composite
def hostile_criteria(draw):
    e = draw(st.integers(1, 5))
    t = draw(st.sampled_from([1, 1, 2, 7, 19]))
    k = draw(st.integers(1, e))
    cap = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    probs = softmax(rng.normal(size=(t, e))).astype(dtype)
    if draw(st.booleans()):
        # What routing builds (gap-free queues), then zero gates on
        # kept slots and fully dropped tokens.
        routing = route(probs, k, cap,
                        batch_prioritized=draw(st.booleans()))
        crit, gates = routing.crit, routing.gates.astype(dtype)
        locations = crit.locations.copy()
        gates[rng.random(gates.shape) < 0.2] = 0.0
        dropped = rng.random(t) < 0.25
        locations[:, dropped] = cap + rng.integers(0, 3)
        if draw(st.booleans()):
            # Planned first, then live gates set, as MoE.forward does.
            assert crit.plan.valid.shape == gates.shape
            crit.gates = gates
        else:
            crit = replace(crit, gates=gates, locations=locations)
    else:
        # Hand-built: gapped, negative, past-capacity and colliding
        # queue positions, gates nonzero even on dropped slots.
        idxs = rng.integers(0, e, size=(k, t))
        locations = rng.integers(-2, cap + 3, size=(k, t))
        gates = rng.random((k, t)).astype(dtype)
        gates[rng.random((k, t)) < 0.2] = 0.0
        crit = RoutingCriteria(idxs, locations, gates, cap, e)
    return crit, probs, rng


def _same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@given(case=hostile_criteria())
@settings(max_examples=150, deadline=None)
def test_plan_consumers_match_the_mask_oracle(case):
    crit, probs, rng = case
    dtype = crit.gates.dtype
    m = 3
    x = rng.normal(size=(crit.num_tokens, m)).astype(dtype)
    z = rng.normal(size=(crit.num_experts, crit.capacity, m)).astype(dtype)
    g = rng.normal(size=(crit.num_tokens, m)).astype(dtype)

    _same(fast_encode(x, crit), oracle_encode(x, crit))
    _same(fast_encode_backward(z, crit), oracle_encode_backward(z, crit))
    _same(fast_decode(z, crit), oracle_decode(z, crit))
    for got, want in zip(fast_decode_backward(g, z, crit),
                         oracle_decode_backward(g, z, crit)):
        _same(got, want)

    _same(crit.occupancy, oracle_occupancy(crit))
    _same(expert_load(crit), oracle_load(crit))
    assert crit.dropped_fraction() == oracle_dropped_fraction(crit)
    assert crit.max_needed_capacity() == oracle_needed_capacity(crit)
    stats = routing_stats(crit, probs)
    for name, want in oracle_stats(crit, probs).items():
        # Read as attributes: three of them are computed on this read.
        got = getattr(stats, name)
        if isinstance(want, float):
            assert float(got).hex() == want.hex(), name
        else:
            assert got == want, name


@given(case=hostile_criteria())
@settings(max_examples=60, deadline=None)
def test_live_gates_decode_like_a_masked_criteria(case):
    """``with_gates`` (what ``moe_combine`` passes) decodes as the old
    combine did: a second criteria whose gates were zeroed off-plan."""
    crit, _, rng = case
    live = rng.normal(size=crit.gates.shape).astype(crit.gates.dtype)
    live[rng.random(live.shape) < 0.2] = 0.0
    masked = replace(crit, gates=np.where(_valid(crit), live, 0.0)
                     .astype(live.dtype))
    z = rng.normal(size=(crit.num_experts, crit.capacity, 2)).astype(
        live.dtype)
    g = rng.normal(size=(crit.num_tokens, 2)).astype(live.dtype)
    _same(fast_decode(z, crit.with_gates(live)), oracle_decode(z, masked))
    for got, want in zip(fast_decode_backward(g, z, crit.with_gates(live)),
                         oracle_decode_backward(g, z, masked)):
        _same(got, want)


def test_index_arrays_are_read_only():
    crit = route(softmax(np.ones((4, 3))), 2, 2).crit
    with pytest.raises(ValueError):
        crit.locations[0, 0] = 5
    with pytest.raises(ValueError):
        crit.idxs[0, 0] = 1
    with pytest.raises(ValueError):
        crit.plan.load[0] = 0


@pytest.mark.parametrize("field", ["idxs", "locations", "capacity",
                                   "num_experts", "plan"])
def test_plan_and_its_inputs_cannot_be_reassigned(field):
    crit = route(softmax(np.ones((4, 3))), 2, 2).crit
    with pytest.raises(AttributeError, match=field):
        setattr(crit, field, getattr(crit, field))
    crit.gates = np.ones_like(crit.gates)  # gates stay assignable


@pytest.mark.parametrize("clone", [deepcopy,
                                   lambda c: pickle.loads(pickle.dumps(c))])
def test_a_copy_is_frozen_and_planned_afresh(clone):
    crit = route(softmax(np.arange(12.0).reshape(4, 3)), 2, 1).crit
    copy = clone(crit)
    with pytest.raises(ValueError):
        copy.locations[0, 0] = 5
    assert copy.plan is not crit.plan
    for got, want in zip(copy.plan, crit.plan):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("idxs", [[[0, -1, 1]], [[0, 2, 1]]])
def test_expert_index_outside_range_is_rejected(idxs):
    # Regression: an index of -1 wrapped to cell -2 (expert 1, row 0),
    # where the next token silently overwrote it.
    with pytest.raises(ValueError, match="idxs must be in"):
        RoutingCriteria(idxs=np.array(idxs), locations=np.zeros((1, 3), int),
                        gates=np.ones((1, 3)), capacity=2, num_experts=2)


def test_non_integer_routing_arrays_are_rejected():
    with pytest.raises(ValueError, match="integer"):
        RoutingCriteria(idxs=np.zeros((1, 2)), locations=np.zeros((1, 2), int),
                        gates=np.ones((1, 2)), capacity=1, num_experts=1)
    with pytest.raises(ValueError, match="integer"):
        RoutingCriteria(idxs=np.zeros((1, 2), int), locations=np.zeros((1, 2)),
                        gates=np.ones((1, 2)), capacity=1, num_experts=1)
