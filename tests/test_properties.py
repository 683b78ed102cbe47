"""Hypothesis property tests on cross-cutting invariants.

Module-local property tests live next to their units; this file holds
the invariants that span modules: token conservation through the
dispatch/combine pipeline, linearity of the collectives, and cost-model
sanity under arbitrary valid configurations.
"""

from copy import deepcopy
from dataclasses import dataclass, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd.tensor import Tensor
from repro.cluster.topology import ndv4_topology
from repro.collectives.functional import (
    all_to_all_2dh_phases,
    flexible_all_to_all,
)
from repro.collectives.schedule import A2AAlgorithm, a2a_time
from repro.core.config import MoEConfig
from repro.core.substrate import substrate_dtype
from repro.moe import ffn as ffn_kernels
from repro.moe.capacity import (
    CapacityPolicy,
    needed_capacity_factor,
    resolve_capacity,
)
from repro.moe.distributed import distributed_moe_forward, route_and_encode
from repro.moe.encode import dense_decode, dense_encode, fast_decode, fast_encode
from repro.moe.ffn import ffn_forward_arrays
from repro.moe.gating import compute_locations, softmax
from repro.moe.metrics import routing_stats
from repro.nn import moe as nn_moe
from repro.nn.moe import MoE, route
from repro.obs.profiler import profiling
from repro.parallel.functional import p1_forward, p2_forward
from tests.reference_ops import (
    composed_gates,
    composed_l_aux,
    saving_expert_ffn,
)


def routing_case(t, e, k, cap, seed):
    rng = np.random.default_rng(seed)
    probs = softmax(rng.normal(size=(t, e)))
    routing = route(probs, k, capacity=cap)
    return routing.crit.with_gates(routing.gates), rng


class TestTokenConservation:
    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(2, 48), e=st.integers(2, 8),
           k=st.integers(1, 3), cap=st.integers(1, 12),
           seed=st.integers(0, 1000))
    def test_every_valid_route_lands_exactly_once(self, t, e, k, cap,
                                                  seed):
        if k > e:
            return
        crit, rng = routing_case(t, e, k, cap, seed)
        x = np.eye(t, 4) + rng.normal(0, 0.0, (t, 4))
        x = rng.normal(size=(t, 4))
        dispatched = fast_encode(x, crit)
        # Count non-zero capacity cells == number of valid routes
        # (token rows are generically non-zero).
        live = crit.plan.valid & (crit.gates != 0)
        filled = (np.abs(dispatched).sum(axis=2) > 0).sum()
        assert filled == live.sum()

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(2, 48), e=st.integers(2, 8),
           seed=st.integers(0, 1000))
    def test_no_capacity_loss_with_full_capacity(self, t, e, seed):
        crit, rng = routing_case(t, e, 1, t, seed)
        assert crit.dropped_fraction() == 0.0
        # Each expert's queue holds exactly its routed tokens.
        counts = np.bincount(crit.idxs[0], minlength=e)
        assert crit.max_needed_capacity() == counts.max()


class TestDecodeLinearity:
    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(2, 24), e=st.integers(2, 6),
           k=st.integers(1, 2), seed=st.integers(0, 500),
           alpha=st.floats(-3, 3), beta=st.floats(-3, 3))
    def test_decode_linear_in_expert_output(self, t, e, k, seed, alpha,
                                            beta):
        if k > e:
            return
        crit, rng = routing_case(t, e, k, max(1, t // 2), seed)
        z1 = rng.normal(size=(e, crit.capacity, 5))
        z2 = rng.normal(size=(e, crit.capacity, 5))
        lhs = fast_decode(alpha * z1 + beta * z2, crit)
        rhs = alpha * fast_decode(z1, crit) + beta * fast_decode(z2,
                                                                 crit)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(2, 24), e=st.integers(2, 6),
           seed=st.integers(0, 500))
    def test_encode_linear_in_tokens(self, t, e, seed):
        crit, rng = routing_case(t, e, 1, t, seed)
        x1 = rng.normal(size=(t, 5))
        x2 = rng.normal(size=(t, 5))
        lhs = fast_encode(x1 + x2, crit)
        rhs = fast_encode(x1, crit) + fast_encode(x2, crit)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestCollectiveInvariants:
    @settings(max_examples=20, deadline=None)
    @given(nodes=st.integers(1, 3), m=st.sampled_from([2, 4]),
           seed=st.integers(0, 100))
    def test_a2a_conserves_multiset(self, nodes, m, seed):
        n = nodes * m
        rng = np.random.default_rng(seed)
        world = [rng.normal(size=(n, 2)) for _ in range(n)]
        out = all_to_all_2dh_phases(world, gpus_per_node=m)[-1]
        before = np.sort(np.concatenate([w.ravel() for w in world]))
        after = np.sort(np.concatenate([o.ravel() for o in out]))
        np.testing.assert_allclose(before, after)

    @settings(max_examples=20, deadline=None)
    @given(w=st.sampled_from([2, 4]), e_mult=st.integers(1, 3),
           dc=st.integers(1, 4), m=st.integers(1, 4),
           seed=st.integers(0, 100))
    def test_flexible_a2a_roundtrip(self, w, e_mult, dc, m, seed):
        e = w * e_mult
        rng = np.random.default_rng(seed)
        world = [rng.normal(size=(e, dc, m)) for _ in range(w)]
        there = flexible_all_to_all(world, 1, 0)
        back = flexible_all_to_all(there, 0, 1)
        for r in range(w):
            np.testing.assert_allclose(back[r], world[r])

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([8, 64, 512]),
           log_bytes=st.integers(10, 28),
           algo=st.sampled_from(list(A2AAlgorithm)))
    def test_latency_positive_and_monotone_in_bytes(self, n, log_bytes,
                                                    algo):
        topo = ndv4_topology(n)
        small = a2a_time(topo, 2.0 ** log_bytes, algo)
        big = a2a_time(topo, 2.0 ** (log_bytes + 2), algo)
        assert 0 < small <= big

    @settings(max_examples=15, deadline=None)
    @given(n=st.sampled_from([64, 256, 1024]),
           log_bytes=st.integers(12, 26))
    def test_someone_always_wins(self, n, log_bytes):
        topo = ndv4_topology(n)
        nbytes = 2.0 ** log_bytes
        assert min(a2a_time(topo, nbytes, A2AAlgorithm.LINEAR),
                   a2a_time(topo, nbytes, A2AAlgorithm.TWO_DH)) > 0


class TestLocationInvariants:
    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(1, 64), e=st.integers(1, 8),
           k=st.integers(1, 3), seed=st.integers(0, 500))
    def test_priority_is_a_permutation(self, t, e, k, seed):
        rng = np.random.default_rng(seed)
        idxs = rng.integers(0, e, size=(k, t))
        priority = rng.normal(size=t)
        plain = compute_locations(idxs, e)
        prio = compute_locations(idxs, e, priority=priority)
        # BPR permutes queue positions per expert but preserves the
        # multiset of positions.
        for expert in range(e):
            np.testing.assert_array_equal(
                np.sort(plain[idxs == expert]),
                np.sort(prio[idxs == expert]))

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(1, 64), e=st.integers(1, 8),
           k=st.integers(1, 8), cap=st.integers(1, 12),
           bpr=st.booleans(), seed=st.integers(0, 1000))
    def test_figure1_quantity_has_two_equal_implementations(
            self, t, e, k, cap, bpr, seed):
        # The layer's one record (longest queue from the locations)
        # and the adaptive-capacity path (a bincount over the
        # assignments) must agree bit for bit, drops or not.
        probs = softmax(np.random.default_rng(seed).normal(size=(t, e)))
        crit = route(probs, min(k, e), capacity=cap,
                     batch_prioritized=bpr).crit
        assert routing_stats(crit, probs).needed_capacity_factor \
            == needed_capacity_factor(crit.idxs, e, t)


@dataclass
class HostileRouting:
    """One adversarial MoE problem: ``W = E * r`` ranks of ``T`` tokens
    and a layer's weights in ``dtype``; ``f`` is the Figure 16 setting
    under test, ``no_drop_f`` a factor whose ``dC = k * r * T`` drops
    nothing and divides by ``r`` (what P1 needs).  ``failed`` experts
    and ``poison`` (``(row, column or None for the whole row, value)``
    writes of ±inf / NaN into ``xs[0]``) apply only where a test asks
    for them: :meth:`degraded` and :meth:`poisoned`."""

    w1: np.ndarray
    w2: np.ndarray
    gate: np.ndarray
    top_k: int
    batch_prioritized: bool
    activation: str
    xs: list[np.ndarray]
    replicas: int
    f: float
    failed: frozenset[int]
    poison: tuple[tuple[int, int | None, float], ...]

    @property
    def num_experts(self) -> int:
        return self.w1.shape[0]

    @property
    def no_drop_f(self) -> float:
        return float(self.num_experts * self.replicas)

    def probs(self) -> np.ndarray:
        return softmax(self.xs[0] @ self.gate)

    def layer(self, f: float, router: str = "linear") -> MoE:
        """A trainable ``nn.MoE`` holding these experts (and, linear,
        this gate) in the case's dtype."""
        e, m, v = self.w1.shape
        with substrate_dtype(self.xs[0].dtype):
            layer = MoE(m, v, e, np.random.default_rng(0),
                        top_k=self.top_k, capacity_factor=f, router=router,
                        router_dim=5, activation=self.activation,
                        batch_prioritized=self.batch_prioritized)
        layer.w1.data, layer.w2.data = self.w1, self.w2
        if router == "linear":
            layer.gate.weight.data = self.gate
        return layer

    def frozen(self, f: float) -> MoE:
        layer = self.layer(f)
        layer.freeze()
        return layer

    def degraded(self, f: float, router: str = "linear") -> MoE:
        """:meth:`layer` with the ``failed`` experts masked out."""
        layer = self.layer(f, router)
        for expert in self.failed:
            layer.mask_expert(expert)
        return layer

    def poisoned(self) -> np.ndarray:
        """``xs[0]`` with the ``poison`` writes applied."""
        x = self.xs[0].copy()
        for row, col, value in self.poison:
            x[row, slice(None) if col is None else col] = value
        return x

    def cfg(self, world: int, capacity_factor: float | None = None
            ) -> MoEConfig:
        e, m, v = self.w1.shape
        return MoEConfig(world_size=world, experts_per_gpu=e / world,
                         model_dim=m, hidden_dim=v,
                         tokens_per_gpu=self.xs[0].shape[0],
                         top_k=self.top_k,
                         capacity_factor=capacity_factor or self.no_drop_f)


@st.composite
def hostile_routing(draw) -> HostileRouting:
    """T = 1, k = E, capacity 1 (``f`` tiny), every token to one expert,
    BPR on/off, both float widths, both activations, and all three
    signs of ``f``."""
    e = draw(st.integers(1, 4))
    r = draw(st.sampled_from([1, 2]))
    t = draw(st.sampled_from([1, 1, 2, 5]))
    k = draw(st.sampled_from([1, e]) | st.integers(1, e))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    m, v = 6, 4
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    gate = rng.normal(size=(m, e))
    xs = [rng.normal(size=(t, m)) for _ in range(e * r)]
    if draw(st.booleans()):
        # A dominant logit column: feature 0 is constant and one
        # expert's weight on it dwarfs the rest, so every token of
        # every rank ranks that expert first.
        gate[0, draw(st.integers(0, e - 1))] += 30.0
        for x in xs:
            x[:, 0] = 1.0
    f = draw(st.sampled_from([1e-3, 0.5, 1.0, 4.0, 0.0, -0.25, -8.0]))
    poison = draw(st.lists(st.tuples(
        st.integers(0, t - 1), st.none() | st.integers(0, m - 1),
        st.sampled_from([np.inf, -np.inf, np.nan])), max_size=3))
    return HostileRouting(
        w1=rng.normal(size=(e, m, v)).astype(dtype),
        w2=rng.normal(size=(e, v, m)).astype(dtype),
        gate=gate.astype(dtype), top_k=k,
        batch_prioritized=draw(st.booleans()),
        activation=draw(st.sampled_from(["gelu", "relu"])),
        xs=[x.astype(dtype) for x in xs], replicas=r, f=f,
        failed=draw(st.frozensets(st.integers(0, e - 1),
                                  max_size=e - 1)),
        poison=tuple(poison))


def _bits(value) -> object:
    """``value`` compared by its bits: an array by dtype, shape and
    bytes, a float by its float64 bytes (so NaN equals its own bits)."""
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes()
    return value


def _tol(dtype) -> float:
    return 1e-10 if dtype == np.float64 else 1e-4


class TestOneRoutingDecision:
    """:func:`route` against the composition it replaced and the layer
    that calls it, and every array-level forward against the one MoE
    layer, a frozen ``nn.MoE``, at every k."""

    @settings(max_examples=120, deadline=None)
    @given(case=hostile_routing())
    def test_route_is_the_old_composition(self, case):
        # A policy routes as the dC it resolves, and the layer records
        # route()'s crit and returns its l_aux, bit for bit.
        probs, k = case.probs(), case.top_k
        t, e = probs.shape
        probe = np.argsort(-probs, axis=1, kind="stable")[:, :k].T
        cap, f = resolve_capacity(CapacityPolicy(case.f), probe, e,
                                  tokens=t, top_k=k)
        fixed = route(probs, k, cap, case.batch_prioritized)
        routing = route(probs, k, CapacityPolicy(case.f),
                        case.batch_prioritized)
        crit = routing.crit
        layer = case.frozen(case.f)
        _, l_aux = layer(Tensor(case.xs[0], dtype=probs.dtype))
        for other in (fixed.crit, layer.last_routing_criteria):
            for field in ("idxs", "locations", "gates"):
                a, b = getattr(crit, field), getattr(other, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(routing.order.T, crit.idxs)
        assert routing.gates.tobytes() == fixed.gates.tobytes()
        assert crit.gates.dtype == routing.gates.dtype == probs.dtype
        assert (crit.capacity, crit.num_experts) == (cap, e)
        assert (routing.effective_capacity_factor,
                fixed.effective_capacity_factor) == (f, None)
        assert np.asarray(routing.l_aux).dtype == probs.dtype
        assert routing.l_aux == fixed.l_aux == l_aux.data

    @settings(max_examples=60, deadline=None)
    @given(case=hostile_routing())
    def test_every_forward_agrees_when_nothing_drops(self, case):
        xs, e, k = case.xs, case.num_experts, case.top_k
        dtype, tol = xs[0].dtype, _tol(xs[0].dtype)
        frozen, adaptive = case.frozen(case.no_drop_f), case.frozen(0.0)

        def routed(x):
            routing = route(softmax(x @ case.gate), k,
                            CapacityPolicy(case.no_drop_f),
                            case.batch_prioritized)
            return (routing.crit.with_gates(routing.gates),
                    float(routing.l_aux))

        def figure8(x):
            # Paper Figure 8's custom layer over the live internals.
            crit, l_aux = routed(x)
            y = fast_encode(x, crit)
            y = flexible_all_to_all([y], 1, 0)[0]
            y, _ = ffn_forward_arrays(y, case.w1, case.w2, case.activation)
            y = flexible_all_to_all([y], 0, 1)[0]
            return fast_decode(y, crit), l_aux

        def dense(x):
            # Fairseq's data path: the GShard einsum encode/decode.
            crit, _ = routed(x)
            y, _ = ffn_forward_arrays(dense_encode(x, crit), case.w1,
                                      case.w2, case.activation)
            return dense_decode(y, crit)

        # One expert per rank over the first E ranks; P1/P2 take all
        # W = E * r.
        dist = distributed_moe_forward(xs[:e], frozen, case.cfg(e))
        cfg_p = case.cfg(len(xs))
        per_rank = {"p1": p1_forward(xs, frozen, cfg_p),
                    "p2": p2_forward(xs, frozen, cfg_p),
                    "expert-parallel": dist.outputs}
        snippet_aux = []
        for rank, x in enumerate(xs):
            ref, l_aux = frozen(Tensor(x, dtype=dtype))
            assert frozen.last_routing_stats.dropped_fraction == 0.0
            out_a, l_aux_a = adaptive(Tensor(x, dtype=dtype))
            snippet, aux = figure8(x)
            snippet_aux.append(aux)
            outputs = {"adaptive": out_a.data, "figure8": snippet,
                       "dense": dense(x)}
            outputs.update({name: outs[rank]
                            for name, outs in per_rank.items()
                            if rank < len(outs)})
            for name, out in outputs.items():
                assert out.dtype == dtype, name
                np.testing.assert_allclose(out, ref.data, rtol=tol,
                                           atol=tol, err_msg=name)
            assert l_aux.data.tobytes() == l_aux_a.data.tobytes()
            assert aux == float(l_aux.data)
        assert dist.dropped_fraction == 0.0
        assert dist.l_aux == float(np.mean(snippet_aux[:e]))

    @settings(max_examples=60, deadline=None)
    @given(case=hostile_routing())
    def test_drops_agree_at_one_rank(self, case):
        # Slots drop (f is tiny or bounded): at W = 1, with the per-rank
        # capacity set to the dC the layer resolved, the expert-parallel
        # forward drops the same slots and combines the same output.
        x, e, k = case.xs[0], case.num_experts, case.top_k
        frozen = case.frozen(case.f)
        out, l_aux = frozen(Tensor(x, dtype=x.dtype))
        dc = frozen.last_routing_criteria.capacity
        cfg = case.cfg(1, capacity_factor=(dc - 0.5) * e / (k * len(x)))
        assert cfg.capacity_per_gpu == dc
        dist = distributed_moe_forward([x], frozen, cfg)
        assert dist.dropped_fraction \
            == frozen.last_routing_stats.dropped_fraction
        assert dist.l_aux == float(l_aux.data)
        assert dist.outputs[0].dtype == x.dtype
        tol = _tol(x.dtype)
        np.testing.assert_allclose(dist.outputs[0], out.data, rtol=tol,
                                   atol=tol)

    def test_k1_and_k2_share_one_gate_rule(self):
        # route() renormalises the selected gates only for k > 1, so at
        # k = 1 the raw top probability scales the expert output
        # (Switch-style: the router trains through it).  Same weights,
        # no drops: the expert-parallel forward at W = 1 decodes with
        # the gates the layer combines with, at k = 1 and k = 2.
        m, v, e, t = 8, 16, 4, 32
        rng = np.random.default_rng(0)
        with substrate_dtype(np.float32):
            layer = MoE(m, v, e, rng, top_k=1, capacity_factor=float(e))
        layer.freeze()
        x = rng.normal(size=(t, m)).astype(np.float32)
        probs = softmax(x @ layer.gate.weight.data, axis=1)
        np.testing.assert_array_equal(route(probs, 1, t).gates[0],
                                      probs.max(axis=1))
        for k in (1, 2):
            cfg = MoEConfig(world_size=1, experts_per_gpu=e, model_dim=m,
                            hidden_dim=v, tokens_per_gpu=t, top_k=k,
                            capacity_factor=float(e))
            ref = distributed_moe_forward([x], layer, cfg)
            assert ref.dropped_fraction == 0.0
            crit = route_and_encode([x], layer, cfg, sharded=False)[0][0]
            assert crit.gates.tobytes() == route(probs, k, t).gates.tobytes()
            # The expert FFN runs over other row counts (the occupied
            # prefix, the whole dC): equal up to GEMM blocking.
            out = layer(Tensor(x), top_k=k)[0].data
            np.testing.assert_allclose(out, ref.outputs[0], rtol=1e-5,
                                       atol=1e-6)


class TestFrozenLayer:
    """A frozen ``nn.MoE`` routes on arrays instead of the tape; its
    output, ``l_aux`` and routing record are the trainable layer's, bit
    for bit (NaN bits included), on the hostile strategy with its failed
    experts and its ±inf / NaN activation rows."""

    @settings(max_examples=120, deadline=None)
    @given(case=hostile_routing(),
           router=st.sampled_from(["linear", "cosine"]))
    def test_frozen_copy_is_the_trainable_layer(self, case, router):
        x = case.poisoned()
        layer = case.degraded(case.f, router)
        frozen = deepcopy(layer)
        frozen.freeze()

        # The forward runs under the process default (float32), so a
        # float64 layer also checks the promotion of the scalar operands.
        # Poisoned rows make inf - inf and 0 * inf on both sides.
        with np.errstate(invalid="ignore", over="ignore",
                         divide="ignore"):
            out, l_aux = layer(Tensor(x, dtype=x.dtype))
            out_f, l_aux_f = frozen(Tensor(x, dtype=x.dtype))
            stats = [(name, getattr(s, name))
                     for s in (layer.last_routing_stats,
                               frozen.last_routing_stats)
                     for name in [f.name for f in fields(s)
                                  if not f.name.startswith("_")]
                     + list(s.LAZY)]
            aux = [a.data for a in (l_aux, l_aux_f)]
        assert out._parents and out._backward is not None
        assert out_f._parents == () and out_f._backward is None
        assert l_aux_f._parents == () and l_aux_f._backward is None
        for a, b in ((out.data, out_f.data), aux):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
        half = len(stats) // 2
        for (name, a), (_, b) in zip(stats[:half], stats[half:]):
            assert _bits(a) == _bits(b), name
        assert frozen.last_effective_capacity_factor \
            == layer.last_effective_capacity_factor
        crit = layer.last_routing_criteria
        crit_f = frozen.last_routing_criteria
        assert (crit.capacity, crit.num_experts) \
            == (crit_f.capacity, crit_f.num_experts)
        for field in ("idxs", "locations", "gates"):
            assert _bits(getattr(crit, field)) \
                == _bits(getattr(crit_f, field)), field
        for field, a, b in zip(crit.plan._fields, crit.plan, crit_f.plan):
            assert _bits(a) == _bits(b), field

    @staticmethod
    def _layer_pair(router):
        layer = MoE(6, 8, 4, np.random.default_rng(0), top_k=2,
                    router=router, router_dim=5)
        frozen = deepcopy(layer)
        frozen.freeze()
        x = np.random.default_rng(1).normal(size=(9, 6)).astype(np.float32)
        return layer, frozen, x

    def test_frozen_linear_layer_builds_no_tape(self, monkeypatch):
        calls = []
        real = Tensor.from_op

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(Tensor, "from_op", staticmethod(counting))
        layer, frozen, x = self._layer_pair("linear")
        frozen(Tensor(x))
        assert calls == []
        layer(Tensor(x))  # x needs no gradient: dispatch stays untaped
        assert {"linear", "expert_ffn", "moe_combine"} <= set(calls)
        assert "moe_dispatch" not in calls

    @pytest.mark.parametrize("router", ["linear", "cosine"])
    def test_profiled_frozen_layer_prices_every_stage(self, router):
        # Under a profiler a frozen layer keeps the gate GEMM and the
        # three MoE ops, each in the stage the trainable layer has it.
        layer, frozen, x = self._layer_pair(router)
        seen = {}
        for name, module in (("trainable", layer), ("frozen", frozen)):
            with profiling() as prof:
                module(Tensor(x))
            seen[name] = {(r.stage, r.name) for r in prof.records}
        moe_ops = {("dispatch", "moe_dispatch"),
                   ("expert_ffn", "expert_ffn"), ("combine", "moe_combine")}
        assert moe_ops <= seen["frozen"] <= seen["trainable"]
        assert ("gate", "linear") in seen["frozen"]


class TestRouterOps:
    """The router's gates and ``l_aux`` tape ops against the taped chain
    they replace (``tests/reference_ops.py``): forward values and every
    gradient byte for byte, on the hostile strategy."""

    @settings(max_examples=120, deadline=None)
    @given(case=hostile_routing(),
           router=st.sampled_from(["linear", "cosine"]), data=st.data())
    def test_gradients_are_the_composed_chain(self, case, router, data):
        x, e = case.xs[0], case.num_experts
        layer = case.layer(case.f, router)
        for expert in data.draw(st.sets(st.integers(0, e - 1),
                                        max_size=e - 1)):
            layer.mask_expert(expert)
        oracle = deepcopy(layer)
        upstream = np.random.default_rng(0).normal(size=x.shape)

        def run(model):
            leaf = Tensor(x, dtype=x.dtype, requires_grad=True)
            out, l_aux = model(leaf)
            ((out * Tensor(upstream, dtype=x.dtype)).sum()
             + l_aux * Tensor(0.37, dtype=x.dtype)).backward()
            return [out.data, l_aux.data, leaf.grad] + [
                p.grad for p in model.parameters()]

        got = run(layer)
        with mock.patch.object(nn_moe, "route_gates", composed_gates), \
                mock.patch.object(nn_moe, "route_l_aux", composed_l_aux):
            want = run(oracle)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


class TestExpertFFNBackward:
    """The backward half of the layer's equivalence on the hostile
    strategy: the taped ``nn.MoE`` gradients (input, ``w1``, ``w2``,
    gate) with the expert kernels rebuilding the activation and writing
    over saved buffers equal, byte for byte, those of the expert op that
    kept ``(h, a, cache)`` (``tests/reference_ops.py``), masked experts
    included; frozen experts run no weight-gradient GEMM and get
    ``None``."""

    @settings(max_examples=120, deadline=None)
    @given(case=hostile_routing(),
           router=st.sampled_from(["linear", "cosine"]),
           frozen=st.booleans(), data=st.data())
    def test_gradients_are_the_saving_kernels(self, case, router, frozen,
                                              data):
        x, e = case.xs[0], case.num_experts
        layer = case.layer(case.f, router)
        for expert in data.draw(st.sets(st.integers(0, e - 1),
                                        max_size=e - 1)):
            layer.mask_expert(expert)
        if frozen:
            layer.w1.requires_grad = layer.w2.requires_grad = False
        oracle = deepcopy(layer)
        upstream = np.random.default_rng(0).normal(size=x.shape)

        def run(model):
            leaf = Tensor(x, dtype=x.dtype, requires_grad=True)
            out, l_aux = model(leaf)
            ((out * Tensor(upstream, dtype=x.dtype)).sum()
             + l_aux * Tensor(0.37, dtype=x.dtype)).backward()
            return [out.data, l_aux.data, leaf.grad] + [
                p.grad for p in model.parameters()]

        with mock.patch.object(ffn_kernels, "_weight_grad",
                               wraps=ffn_kernels._weight_grad) as grads:
            got = run(layer)
        assert grads.called != frozen
        with mock.patch.object(nn_moe, "expert_ffn", saving_expert_ffn):
            want = run(oracle)
        assert (layer.w1.grad is None) == (layer.w2.grad is None) == frozen
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


class TestConfigCostSanity:
    @settings(max_examples=25, deadline=None)
    @given(w=st.sampled_from([8, 64, 512]),
           de=st.sampled_from([0.5, 1, 2]),
           t=st.sampled_from([1024, 4096, 16384]),
           f=st.floats(0.25, 16.0), k=st.integers(1, 2))
    def test_moe_step_time_finite_and_positive(self, w, de, t, f, k):
        e = max(1, round(w * de))
        cfg = MoEConfig(world_size=w, experts_per_gpu=de, model_dim=512,
                        hidden_dim=2048, tokens_per_gpu=t,
                        top_k=min(k, e), capacity_factor=f)
        from repro.runtime.plan import TUTEL_FEATURES, moe_step_time
        bd = moe_step_time(cfg, ndv4_topology(w), TUTEL_FEATURES)
        assert np.isfinite(bd.total)
        assert bd.total > 0
        assert bd.compute_only <= bd.total + 1e-12
