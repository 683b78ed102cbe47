"""Hypothesis property tests on cross-cutting invariants.

Module-local property tests live next to their units; this file holds
the invariants that span modules: token conservation through the
dispatch/combine pipeline, linearity of the collectives, and cost-model
sanity under arbitrary valid configurations.
"""

from copy import deepcopy
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import moe, net
from repro.autograd.tensor import Tensor
from repro.baselines.fairseq_moe import fairseq_moe_forward
from repro.cluster.topology import ndv4_topology
from repro.collectives.functional import (
    all_to_all_2dh,
    all_to_all_linear,
    flexible_all_to_all,
)
from repro.collectives.schedule import (
    A2AAlgorithm,
    a2a_time,
    linear_a2a_time,
    twodh_a2a_time,
)
from repro.core.config import MoEConfig
from repro.core.substrate import substrate_dtype
from repro.moe.capacity import (
    CapacityPolicy,
    needed_capacity_factor,
    resolve_capacity,
)
from repro.moe.distributed import distributed_moe_forward
from repro.moe.encode import fast_decode, fast_encode
from repro.moe.ffn import ffn_forward_arrays
from repro.moe.gating import (
    compute_locations,
    load_balance_loss,
    route,
    softmax,
    top_k_routing,
)
from repro.moe.layer import (
    ExpertParams,
    MoELayerParams,
    moe_layer_forward,
)
from repro.moe.metrics import routing_stats
from repro.nn.moe import MoE
from repro.obs.profiler import profiling
from repro.parallel.functional import p1_forward, p2_forward


def routing_case(t, e, k, cap, seed):
    rng = np.random.default_rng(seed)
    probs = softmax(rng.normal(size=(t, e)))
    return top_k_routing(probs, k, capacity=cap), rng


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
        live = crit.valid & (crit.gates != 0)
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
        out = all_to_all_2dh(world, gpus_per_node=m)
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
        assert min(linear_a2a_time(topo, nbytes),
                   twodh_a2a_time(topo, nbytes)) > 0


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
        crit = top_k_routing(probs, min(k, e), capacity=cap,
                             batch_prioritized=bpr)
        assert routing_stats(crit, probs).needed_capacity_factor \
            == needed_capacity_factor(crit.idxs, e, t)


@dataclass
class HostileRouting:
    """One adversarial MoE problem: ``W = E * r`` ranks of ``T`` tokens
    and a layer in ``dtype``; ``f`` is the Figure 16 setting under
    test, ``no_drop_f`` a factor whose ``dC = k * r * T`` drops nothing
    and divides by ``r`` (what P1 needs)."""

    params: MoELayerParams
    xs: list[np.ndarray]
    replicas: int
    f: float

    @property
    def no_drop_f(self) -> float:
        return float(self.params.experts.num_experts * self.replicas)

    def probs(self) -> np.ndarray:
        return softmax(self.xs[0] @ self.params.gate_weight)

    def layer(self, f: float, router: str = "linear") -> MoE:
        """A trainable ``nn.MoE`` holding these experts (and, linear,
        this gate) in the case's dtype."""
        p = self.params
        e, m, v = p.experts.w1.shape
        with substrate_dtype(self.xs[0].dtype):
            layer = MoE(m, v, e, np.random.default_rng(0), top_k=p.top_k,
                        capacity_factor=f, router=router, router_dim=5,
                        activation=p.activation,
                        normalize_gate=p.normalize_gate,
                        batch_prioritized=p.batch_prioritized)
        layer.w1.data, layer.w2.data = p.experts.w1, p.experts.w2
        if router == "linear":
            layer.gate.weight.data = p.gate_weight
        return layer

    def cfg(self, world: int) -> MoEConfig:
        e, m, v = self.params.experts.w1.shape
        return MoEConfig(world_size=world, experts_per_gpu=e / world,
                         model_dim=m, hidden_dim=v,
                         tokens_per_gpu=self.xs[0].shape[0],
                         top_k=self.params.top_k,
                         capacity_factor=self.no_drop_f)


@st.composite
def hostile_routing(draw) -> HostileRouting:
    """T = 1, k = E, capacity 1 (``f`` tiny), every token to one expert,
    BPR and gate normalisation on/off, both float widths, both
    activations, and all three signs of ``f``."""
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
    params = MoELayerParams(
        experts=ExpertParams(
            w1=rng.normal(size=(e, m, v)).astype(dtype),
            w2=rng.normal(size=(e, v, m)).astype(dtype)),
        gate_weight=gate.astype(dtype), top_k=k,
        normalize_gate=draw(st.booleans()),
        batch_prioritized=draw(st.booleans()),
        activation=draw(st.sampled_from(["gelu", "relu"])))
    f = draw(st.sampled_from([1e-3, 0.5, 1.0, 4.0, 0.0, -0.25, -8.0]))
    return HostileRouting(params, [x.astype(dtype) for x in xs], r, f)


class TestOneRoutingDecision:
    """ROADMAP 7a, first slice: :func:`route` against the composition
    it replaced, and every array-level forward against every other."""

    @settings(max_examples=120, deadline=None)
    @given(case=hostile_routing())
    def test_route_is_the_old_composition(self, case):
        probs, p = case.probs(), case.params
        t, e = probs.shape
        probe = np.argsort(-probs, axis=1, kind="stable")[:, :p.top_k].T
        cap, f = resolve_capacity(CapacityPolicy(case.f), probe, e,
                                  tokens=t, top_k=p.top_k)
        old = top_k_routing(probs, p.top_k, cap, p.normalize_gate,
                            p.batch_prioritized)
        crit, l_aux, eff_f = route(probs, p.top_k, CapacityPolicy(case.f),
                                   p.normalize_gate, p.batch_prioritized)
        for field in ("idxs", "locations", "gates"):
            new = getattr(crit, field)
            assert new.dtype == getattr(old, field).dtype
            np.testing.assert_array_equal(new, getattr(old, field))
        assert crit.gates.dtype == probs.dtype
        assert (crit.capacity, crit.num_experts, eff_f) == (cap, e, f)
        assert l_aux == load_balance_loss(probs, probe)

    @settings(max_examples=60, deadline=None)
    @given(case=hostile_routing())
    def test_every_forward_agrees_when_nothing_drops(self, case):
        p, xs = case.params, case.xs
        e, dtype = p.experts.num_experts, xs[0].dtype
        tol = 1e-10 if dtype == np.float64 else 1e-4
        policy = CapacityPolicy(case.no_drop_f)

        def figure8(x):
            scores = moe.softmax(x @ p.gate_weight)
            crit, l_aux = moe.top_k_routing(
                scores, p.top_k, capacity_factor=case.no_drop_f,
                normalize_gate=p.normalize_gate,
                batch_prioritized=p.batch_prioritized)
            y = moe.fast_encode(x, crit)
            y = net.flex_all2all(y, 1, 0)
            y, _ = ffn_forward_arrays(y, p.experts.w1, p.experts.w2,
                                      p.activation)
            y = net.flex_all2all(y, 0, 1)
            return moe.fast_decode(y, crit), l_aux

        # nn.MoE normalises the selected gates only for k > 1; route()
        # at every k (the pinned k = 1 fork below).
        frozen = None
        if p.top_k > 1 or not p.normalize_gate:
            frozen = case.layer(case.no_drop_f)
            frozen.freeze()
        refs = [moe_layer_forward(x, p, capacity=policy) for x in xs]
        assert all(ref.dropped_fraction == 0.0 for ref in refs)
        # One expert per rank over the first E ranks; P1/P2 take all
        # W = E * r.
        cfg_d, cfg_p = case.cfg(e), case.cfg(len(xs))
        dist = distributed_moe_forward(xs[:e], p, cfg_d)
        per_rank = {"p1": p1_forward(xs, p, cfg_p),
                    "p2": p2_forward(xs, p, cfg_p),
                    "expert-parallel": dist.outputs}
        for rank, (x, ref) in enumerate(zip(xs, refs)):
            adaptive = moe_layer_forward(x, p, capacity=CapacityPolicy(0.0))
            fairseq = fairseq_moe_forward(x, p,
                                          capacity_factor=case.no_drop_f)
            snippet, snippet_aux = figure8(x)
            outputs = {"adaptive": adaptive.output,
                       "fairseq": fairseq.output, "figure8": snippet}
            outputs.update({name: outs[rank]
                            for name, outs in per_rank.items()
                            if rank < len(outs)})
            if frozen is not None:
                out, _ = frozen(Tensor(x, dtype=dtype))
                outputs["frozen nn.MoE"] = out.data
            for name, out in outputs.items():
                assert out.dtype == dtype, name
                np.testing.assert_allclose(out, ref.output, rtol=tol,
                                           atol=tol, err_msg=name)
            assert ref.l_aux == adaptive.l_aux == fairseq.l_aux \
                == snippet_aux
        assert dist.dropped_fraction == 0.0
        assert dist.l_aux == float(np.mean([ref.l_aux for ref in refs[:e]]))

    def test_k1_gate_fork_is_pinned(self):
        # route() renormalises the selected gates at every k, so a k = 1
        # gate reads 1.0; nn.MoE renormalises only for k > 1, so at
        # k = 1 the raw top probability scales the expert output
        # (Switch-style: the router trains through it).  Same weights,
        # no drops: the two layers differ by exactly that factor at
        # k = 1 and agree at k = 2.
        m, v, e, t = 8, 16, 4, 32
        rng = np.random.default_rng(0)
        with substrate_dtype(np.float32):
            layer = MoE(m, v, e, rng, top_k=1, capacity_factor=float(e))
        layer.freeze()
        params = MoELayerParams(
            experts=ExpertParams(w1=layer.w1.data, w2=layer.w2.data),
            gate_weight=layer.gate.weight.data)
        x = rng.normal(size=(t, m)).astype(np.float32)

        def both(k):
            ref = moe_layer_forward(x, params, top_k=k,
                                    capacity=CapacityPolicy(float(e)))
            assert ref.dropped_fraction == 0.0
            return layer(Tensor(x), top_k=k)[0].data, ref.output

        out, ref = both(1)
        top = softmax(x @ params.gate_weight).max(axis=1, keepdims=True)
        np.testing.assert_allclose(out, top * ref, rtol=1e-5, atol=1e-6)
        assert np.abs(out - ref).max() > 1.0
        np.testing.assert_allclose(*both(2), rtol=1e-4, atol=1e-5)


class TestFrozenLayer:
    """A frozen ``nn.MoE`` routes on arrays instead of the tape; its
    output, ``l_aux`` and routing record are the trainable layer's, bit
    for bit, on the hostile strategy."""

    @settings(max_examples=120, deadline=None)
    @given(case=hostile_routing(),
           router=st.sampled_from(["linear", "cosine"]), data=st.data())
    def test_frozen_copy_is_the_trainable_layer(self, case, router, data):
        x, e = case.xs[0], case.params.experts.num_experts
        layer = case.layer(case.f, router)
        for expert in data.draw(st.sets(st.integers(0, e - 1),
                                        max_size=e - 1)):
            layer.mask_expert(expert)
        frozen = deepcopy(layer)
        frozen.freeze()

        # The forward runs under the process default (float32), so a
        # float64 layer also checks the promotion of the scalar operands.
        out, l_aux = layer(Tensor(x, dtype=x.dtype))
        out_f, l_aux_f = frozen(Tensor(x, dtype=x.dtype))
        assert out._parents and out._backward is not None
        assert out_f._parents == () and out_f._backward is None
        assert l_aux_f._parents == () and l_aux_f._backward is None
        for a, b in ((out, out_f), (l_aux, l_aux_f)):
            assert (a.data.dtype, a.shape) == (b.data.dtype, b.shape)
            assert a.data.tobytes() == b.data.tobytes()
        assert frozen.last_routing_stats == layer.last_routing_stats
        assert frozen.last_effective_capacity_factor \
            == layer.last_effective_capacity_factor
        crit = layer.last_routing_criteria
        crit_f = frozen.last_routing_criteria
        assert (crit.capacity, crit.num_experts) \
            == (crit_f.capacity, crit_f.num_experts)
        for field in ("idxs", "locations", "gates"):
            a, b = getattr(crit, field), getattr(crit_f, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

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
