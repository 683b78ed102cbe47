"""Closed-form FLOP/byte reference tests for the op-level profiler.

The profiler's counts are analytic, so these tests assert *exact*
equality against the textbook formulas (GEMM ``2*m*n*k`` forward /
``4*m*n*k`` backward, sparse encode ``O(T*k*M)`` vs the dense
``O(T*E*C*M)`` dispatch), plus the ``tracemalloc`` peak helper and the
measured peak's regression bound against the committed baseline.
"""

import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.autograd import functional, moe_ops
from repro.autograd.moe_ops import moe_combine, moe_dispatch
from repro.autograd.tensor import Tensor
from repro.moe.gating import RoutingCriteria, compute_locations
from repro.core.substrate import substrate_dtype
from repro.obs import MOE_STAGES, get_profiler, profiler, stage
from repro.obs.profiler import (
    OP_COSTS,
    Profiler,
    elementwise_cost,
    matmul_cost,
    profiling,
    routes_of,
    sparse_decode_cost,
    sparse_encode_cost,
    traced_peak,
)
from tests.reference_ops import gelu, relu

ROOT = Path(__file__).resolve().parents[1]
BASELINES = ROOT / "benchmarks/baselines"
AUTOGRAD = ROOT / "src/repro/autograd"


def seeded_routing(t=64, e=8, k=2, capacity=16, seed=0):
    rng = np.random.default_rng(seed)
    order = np.argsort(rng.random((t, e)), axis=1)[:, :k]
    idxs = np.ascontiguousarray(order.T)
    locations = compute_locations(idxs, e)
    gates = np.full((k, t), 1.0 / k)
    return RoutingCriteria(idxs=idxs, locations=locations, gates=gates,
                           capacity=capacity, num_experts=e)


class TestGemmReference:
    # The byte ledger must be exact at both supported itemsizes — the
    # float64 monoculture used to report 2x the true bytes under
    # float32 (closed-form pin of both conventions).
    @pytest.mark.parametrize("dtype,isz", [(np.float32, 4),
                                           (np.float64, 8)])
    def test_forward_flops_are_2mnk(self, dtype, isz):
        m, k, n = 16, 24, 32
        rng = np.random.default_rng(0)
        with substrate_dtype(dtype), profiling() as prof:
            out = Tensor(rng.standard_normal((m, k))) @ \
                Tensor(rng.standard_normal((k, n)))
            del out
        (rec,) = [r for r in prof.records if r.name == "matmul"]
        assert rec.cost.flops == 2 * m * n * k
        assert rec.cost.bytes_read == (m * k + k * n) * isz
        assert rec.cost.bytes_written == m * n * isz

    @pytest.mark.parametrize("isz", [4, 8])
    def test_cost_helpers_scale_with_itemsize(self, isz):
        m, k, n = 8, 12, 10
        fwd, bwd = matmul_cost((m, k), (k, n), (m, n), itemsize=isz)
        assert fwd.bytes_read == (m * k + k * n) * isz
        assert fwd.bytes_written == m * n * isz
        assert bwd.bytes_read == (m * n + m * k + k * n) * isz
        assert bwd.bytes_written == (m * k + k * n) * isz
        e_fwd, e_bwd = elementwise_cost("gelu", 100, 1, itemsize=isz)
        assert e_fwd.bytes_read == 100 * isz
        assert e_fwd.bytes_written == 100 * isz
        assert e_bwd.bytes_written == 100 * isz

    def test_default_itemsize_follows_substrate(self):
        with substrate_dtype(np.float32):
            assert profiler.default_itemsize() == 4
            assert matmul_cost((2, 2), (2, 2), (2, 2))[0].bytes_written \
                == 4 * 4
        with substrate_dtype(np.float64):
            assert profiler.default_itemsize() == 8
            assert matmul_cost((2, 2), (2, 2), (2, 2))[0].bytes_written \
                == 4 * 8

    def test_backward_flops_are_4mnk(self):
        m, k, n = 8, 12, 10
        rng = np.random.default_rng(1)
        with profiling() as prof:
            a = Tensor(rng.standard_normal((m, k)), requires_grad=True)
            b = Tensor(rng.standard_normal((k, n)), requires_grad=True)
            (a @ b).sum().backward()
        (bwd,) = [r for r in prof.records
                  if r.name == "matmul" and r.phase == "backward"]
        assert bwd.cost.flops == 4 * m * n * k

    def test_totals_sum_fwd_and_bwd(self):
        m, k, n = 8, 8, 8
        rng = np.random.default_rng(2)
        with profiling() as prof:
            a = Tensor(rng.standard_normal((m, k)), requires_grad=True)
            b = Tensor(rng.standard_normal((k, n)), requires_grad=True)
            (a @ b).sum().backward()
        by_op = prof.by_op()
        assert by_op["matmul"]["flops"] == 2 * m * n * k + 4 * m * n * k


class TestSparseKernelReference:
    def test_dispatch_matches_sparse_encode_cost(self):
        crit = seeded_routing()
        x = Tensor(np.random.default_rng(3).standard_normal((64, 32)))
        with profiling() as prof:
            out = moe_dispatch(x, crit)
            del out
        (rec,) = [r for r in prof.records if r.name == "moe_dispatch"]
        expected = sparse_encode_cost(routes_of(crit),
                                      crit.num_experts * crit.capacity,
                                      32)
        assert rec.cost == expected
        assert rec.cost.flops == 0.0  # pure data movement

    def test_combine_matches_sparse_decode_cost(self):
        crit = seeded_routing()
        rng = np.random.default_rng(4)
        z = Tensor(rng.standard_normal(
            (crit.num_experts, crit.capacity, 32)))
        gates = Tensor(crit.gates.copy())
        with profiling() as prof:
            out = moe_combine(z, gates, crit)
            del out
        (rec,) = [r for r in prof.records if r.name == "moe_combine"]
        r = routes_of(crit)
        assert rec.cost == sparse_decode_cost(r, crit.num_tokens, 32)
        assert rec.cost.flops == 2.0 * r * 32

    @pytest.mark.parametrize("ragged", [True, False])
    def test_expert_ffn_prices_the_rows_it_executes(self, ragged):
        # With the occupancy the kernels run sum(rows) rows, so that —
        # not E * cap — is what the record prices; rows=None is E * cap.
        crit = seeded_routing(capacity=24)
        e, c, m, v = crit.num_experts, crit.capacity, 32, 48
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((e, c, m)))
        w1 = Tensor(rng.standard_normal((e, m, v)))
        w2 = Tensor(rng.standard_normal((e, v, m)))
        rows = crit.occupancy if ragged else None
        with profiling() as prof:
            out = moe_ops.expert_ffn(x, w1, w2, "gelu", rows=rows)
            del out
        (rec,) = [r for r in prof.records if r.name == "expert_ffn"]
        r = int(crit.occupancy.sum()) if ragged else e * c
        assert 0 < int(crit.occupancy.sum()) < e * c
        gelu_fwd = elementwise_cost("gelu", r * v,
                                    itemsize=x.data.itemsize)[0]
        assert rec.cost.flops == 2 * (2 * r * v * m) + gelu_fwd.flops

    def test_dense_vs_sparse_gap(self):
        # Figure 24's point: dense dispatch does O(T*E*C*M) work while
        # the sparse kernel moves only the O(T*k*M) live routes.
        t, e, k, c, m = 1024, 64, 2, 32, 128
        crit = seeded_routing(t=t, e=e, k=k, capacity=c)
        dense = 2.0 * t * e * c * m     # the einsum "tec,tm->ecm"
        sparse_elems = routes_of(crit) * m
        assert routes_of(crit) <= k * t
        # routes <= k*T, so the useful-work gap is >= E*C / (2*k)
        assert dense / (2.0 * sparse_elems) >= e * c / (2.0 * k)


class TestForwardHook:
    """``Tensor.from_op`` is the one place an op meets the profiler."""

    @staticmethod
    def _from_op_names():
        """Op-name argument of every ``from_op`` call under autograd."""
        names = []
        for path in sorted(AUTOGRAD.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "from_op"):
                    names.append(ast.literal_eval(node.args[3]))
        return names

    def test_every_op_has_a_cost_entry(self):
        names = self._from_op_names()
        assert len(names) >= 19
        assert set(names) == set(OP_COSTS)

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_fused_dense_ops_price_as_their_composition(self, activation,
                                                        monkeypatch):
        # linear and ffn are priced as the matmul / add / activation
        # nodes they replace, so a model's totals do not move.  Neither
        # activation has a tape op of its own: its reference node is
        # priced here.
        act = gelu if activation == "gelu" else relu
        monkeypatch.setitem(
            OP_COSTS, activation, lambda out, parents, ctx: elementwise_cost(
                activation, out.size, itemsize=out.itemsize))

        def fused(x, w0, w1, b1, w2, b2, w3, b3):
            h = functional.ffn(functional.linear(x, w0), w1, b1, w2, b2,
                               activation)
            return functional.linear(h, w3, b3)

        def composed(x, w0, w1, b1, w2, b2, w3, b3):
            return (act(x @ w0 @ w1 + b1) @ w2 + b2) @ w3 + b3

        totals = []
        for build in (fused, composed):
            rng = np.random.default_rng(0)
            leaves = [Tensor(rng.normal(size=s), requires_grad=True)
                      for s in [(6, 4), (4, 5), (5, 7), (7,), (7, 5), (5,),
                                (5, 3), (3,)]]
            with profiling() as prof:
                build(*leaves).sum().backward()
            totals.append({k: v for k, v in prof.totals().items()
                           if k in ("flops", "bytes_read", "bytes_written")})
        assert totals[0] == totals[1]

    def test_unknown_op_raises_under_profiling(self):
        x = Tensor(np.ones(3))
        assert Tensor.from_op(x.data, (x,), None, "nope").shape == (3,)
        with profiling(), pytest.raises(KeyError, match="nope"):
            Tensor.from_op(x.data, (x,), None, "nope")

    def test_ops_hold_no_reference_to_obs(self):
        for mod in (functional, moe_ops):
            assert "repro.obs" not in Path(mod.__file__).read_text()
            assert not [k for k, v in vars(mod).items()
                        if getattr(v, "__name__", "").startswith(
                            "repro.obs")
                        or getattr(v, "__module__", "").startswith(
                            "repro.obs")], mod.__name__

    @staticmethod
    def _clocked_step(monkeypatch=None):
        """fwd+bwd of a small MoE-shaped graph on a clock that ticks
        once per read; optionally the matmul cost formula reads (and
        so jumps) that clock 1000 times."""
        ticks = iter(range(10 ** 6))
        prof = Profiler(clock=lambda: float(next(ticks)))
        if monkeypatch is not None:
            real = OP_COSTS["matmul"]

            def slow(out, parents, ctx):
                for _ in range(1000):
                    prof.clock()
                return real(out, parents, ctx)
            monkeypatch.setitem(OP_COSTS, "matmul", slow)
        crit = seeded_routing(t=16, e=4, capacity=8)
        rng = np.random.default_rng(7)
        with profiling(prof):
            x = Tensor(rng.standard_normal((16, 8)), requires_grad=True)
            w = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
            with stage("dispatch"):
                d = moe_dispatch(functional.exp(x @ w), crit)
            with stage("combine"):
                y = moe_combine(d, Tensor(crit.gates.copy()), crit)
            (y @ w).sum().backward()
        return prof.records

    def test_records_never_overlap(self):
        records = self._clocked_step()
        assert {r.phase for r in records} == {"forward", "backward"}
        for r, nxt in zip(records, records[1:]):
            assert r.wall > 0
            assert r.ts + r.wall <= nxt.ts

    def test_cost_table_time_is_outside_every_wall(self, monkeypatch):
        plain = self._clocked_step()
        slowed = self._clocked_step(monkeypatch)
        assert [r.wall for r in slowed] == [r.wall for r in plain]
        # ...while the two matmuls' 2000 extra ticks did happen.
        assert slowed[-1].ts == plain[-1].ts + 2000


class TestTracedPeak:
    def test_measures_a_known_allocation(self):
        nbytes = 1 << 20
        arr, peak = traced_peak(np.empty, nbytes, dtype=np.uint8)
        assert arr.nbytes == nbytes
        assert nbytes <= peak < nbytes + 64 * 1024

    def test_leaves_an_outer_session_running(self):
        tracemalloc.start()
        try:
            held = np.ones(1 << 16)
            _, peak = traced_peak(np.empty, 1 << 18, dtype=np.uint8)
            assert tracemalloc.is_tracing()
            # Bytes traced before the call are not part of its peak.
            assert 1 << 18 <= peak < (1 << 18) + held.nbytes
        finally:
            tracemalloc.stop()
        # With no outer session, tracing stops with the call.
        traced_peak(int)
        assert not tracemalloc.is_tracing()

    def test_fused_ffn_peak_sees_hidden_and_output(self):
        # The fused op's saved hidden array is no op output, yet it is
        # live with the output when the call returns.
        rng = np.random.default_rng(0)
        x, w1, b1, w2, b2 = (
            Tensor(rng.standard_normal(s), requires_grad=True)
            for s in [(256, 64), (64, 512), (512,), (512, 64), (64,)])
        out, peak = traced_peak(functional.ffn, x, w1, b1, w2, b2, "gelu")
        h_nbytes = 256 * 512 * x.data.itemsize
        assert peak >= h_nbytes + out.data.nbytes


class TestProfilerEndToEnd:
    @staticmethod
    def _fresh_step():
        """One fwd+bwd step of ``repro profile``'s model."""
        from repro.autograd.functional import cross_entropy
        from repro.cli import _demo_task_and_model

        task, model = _demo_task_and_model(32, 64)
        batch = task.sample(128)

        def step():
            logits, l_aux = model(Tensor(batch.x))
            (cross_entropy(logits, batch.y) + l_aux * 0.01).backward()
        return step

    def _profile_step(self):
        step = self._fresh_step()
        with profiling() as prof:
            step()
        return prof

    def test_moe_stages_attributed(self):
        prof = self._profile_step()
        stages = set(prof.by_stage())
        assert set(MOE_STAGES) <= stages

    def test_deterministic_counts(self):
        a, b = self._profile_step(), self._profile_step()
        assert a.totals()["flops"] == b.totals()["flops"]
        assert a.totals()["ops"] == b.totals()["ops"]

    def test_matches_committed_baseline(self):
        baseline = json.loads(
            (BASELINES / "BENCH_profile_step.json").read_text())
        values = {m["name"]: m["value"] for m in baseline["metrics"]}
        prof = self._profile_step()
        totals = prof.totals()
        # Model-derived counts are exact; the peak, measured over a
        # second, unprofiled pass as `repro profile` does, gets the
        # ±10% regression band of the committed tolerance.
        assert totals["flops"] == values["total_flops"]
        assert totals["ops"] == values["num_ops"]
        assert totals["bytes_read"] + totals["bytes_written"] \
            == values["total_bytes"]
        _, peak = traced_peak(self._fresh_step())
        assert peak == pytest.approx(values["peak_bytes"], rel=0.10)

    def test_summary_json_serializable(self):
        prof = self._profile_step()
        payload = json.loads(json.dumps(prof.summary()))
        assert payload["schema_version"] == 1
        assert payload["totals"]["flops"] > 0

    def test_disabled_profiler_records_nothing(self):
        assert get_profiler() is None
        rng = np.random.default_rng(6)
        out = Tensor(rng.standard_normal((4, 4))) @ \
            Tensor(rng.standard_normal((4, 4)))
        assert out.shape == (4, 4)
        assert get_profiler() is None
