"""repro.serve — arrivals, batcher, ledger conservation, engine.

The load-bearing contracts:

* arrival traces are deterministic functions of (spec, seed);
* the batch former closes on fill / deadline / drain correctly;
* **ledger conservation is exact**: per request, the six spans sum to
  the end-to-end latency, and per batch and stage the token-weighted
  attributed shares sum to the stage wall — for every arrival process
  and seed, under both the float32 and float64 substrates (the ledger
  is integer arithmetic, so dtype must not matter);
* the engine's modeled column is bit-identical across repeated runs
  and reacts to the brownout window;
* a shrunk p99 bound flips the verdict.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.report import SLOCheck
from repro.core.substrate import set_default_dtype
from repro.serve.arrivals import NS, ArrivalSpec, Request, generate_arrivals
from repro.serve.batcher import Batch, BatchFormer
from repro.serve.engine import price_stages, serve_workload
from repro.serve.ledger import (
    EXEC_STAGES,
    STAGES,
    attribute_shares,
    build_batch_ledger,
    stage_sum,
)
from repro.serve.workloads import WORKLOADS, get_workload
from tests.reference_ops import (
    attribute_shares_reference,
    build_batch_ledger_reference,
    generate_arrivals_per_draw,
)

#: sha256 of each registered workload's modeled ledger at
#: ``fast=True, seed=0``: per request ``(request_id, batch_id,
#: model_spans, model_shares)``, then per batch ``(model_walls,
#: queue_depth)``.  The payload never reaches this column.
_MODEL_LEDGER_SHA256 = {
    "brownout_surge":
        "2223c2e006b363d4ad9b9f975f33b6c841708dd9a1ee96cc4061cd31b1e1f761",
    "bursty_spike":
        "5387f1f5ba81eeb5c8cfb1ef5fce6212f12ff4afb1a18c3c6ba8b3961954489e",
    "diurnal_cycle":
        "1be075fa4c282910d3a76e607a7c8a674db6052e20cddb901dbd6c8386acff5b",
    "poisson_steady":
        "f5b5a4d54bec6024e3811198429d368337128d3b48c74ba390bf67700832eb5b",
}


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail a call that does not return within ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _float32_default():
    prev = set_default_dtype(np.float32)
    yield
    set_default_dtype(prev)


def _spec(kind: str, horizon_s: float = 1.0) -> ArrivalSpec:
    if kind == "poisson":
        return ArrivalSpec(kind="poisson", horizon_s=horizon_s,
                           rate=200.0)
    if kind == "bursty":
        return ArrivalSpec(kind="bursty", horizon_s=horizon_s,
                           rate=100.0, burst_rate=600.0,
                           on_s=0.2, off_s=0.3)
    return ArrivalSpec(kind="diurnal", horizon_s=horizon_s, rate=60.0,
                       peak_rate=500.0, period_s=0.5)


class TestArrivals:
    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_trace_is_deterministic(self, kind):
        a = generate_arrivals(_spec(kind), seed=3)
        b = generate_arrivals(_spec(kind), seed=3)
        assert a == b
        assert a != generate_arrivals(_spec(kind), seed=4)

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_trace_is_sorted_and_in_horizon(self, kind):
        spec = _spec(kind)
        trace = generate_arrivals(spec, seed=0)
        assert trace, "horizon should produce requests"
        arrivals = [r.arrival_ns for r in trace]
        assert arrivals == sorted(arrivals)
        assert all(0 <= t <= spec.horizon_s * NS for t in arrivals)
        assert all(spec.min_tokens <= r.tokens <= spec.max_tokens
                   for r in trace)
        assert [r.request_id for r in trace] == list(range(len(trace)))

    @pytest.mark.parametrize("spec", [
        _spec("poisson"), _spec("bursty"), _spec("diurnal"),
        # The two serving benchmark traces: poisson_steady over 1 s and
        # full fixed-size requests (min_tokens == max_tokens draws no
        # token count).
        ArrivalSpec(kind="poisson", horizon_s=1.0, rate=200.0),
        ArrivalSpec(kind="poisson", horizon_s=0.1, rate=1500.0,
                    min_tokens=32, max_tokens=32),
    ], ids=["poisson", "bursty", "diurnal", "serve_steady", "serve_wide"])
    def test_batched_draws_match_the_per_draw_oracle(self, spec):
        for seed in range(300):
            assert generate_arrivals(spec, seed) \
                == generate_arrivals_per_draw(spec, seed), seed

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    def test_empty_and_single_arrival_traces_match_the_oracle(self, kind):
        # A horizon short enough that most seeds draw no arrival and
        # some draw exactly one (the crossing gap is still drawn).
        spec = _spec(kind, horizon_s=0.004)
        counts = set()
        for seed in range(300):
            trace = generate_arrivals(spec, seed)
            assert trace == generate_arrivals_per_draw(spec, seed), seed
            counts.add(len(trace))
        assert {0, 1} <= counts

    def test_rate_roughly_matches(self):
        spec = ArrivalSpec(kind="poisson", horizon_s=20.0, rate=100.0)
        trace = generate_arrivals(spec, seed=0)
        assert 0.8 * 2000 < len(trace) < 1.2 * 2000

    def test_scaled_shrinks_horizon_only(self):
        spec = _spec("poisson", horizon_s=2.0)
        fast = spec.scaled(0.25)
        assert fast.horizon_s == pytest.approx(0.5)
        assert fast.rate == spec.rate
        with pytest.raises(ValueError):
            spec.scaled(0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="weird", horizon_s=1.0, rate=1.0)
        with pytest.raises(ValueError):
            ArrivalSpec(kind="bursty", horizon_s=1.0, rate=10.0,
                        burst_rate=5.0)
        with pytest.raises(ValueError):
            ArrivalSpec(kind="diurnal", horizon_s=1.0, rate=10.0,
                        peak_rate=5.0, period_s=1.0)
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_ns=0, tokens=0)

    @pytest.mark.parametrize("kind, field, value", [
        ("poisson", "rate", math.nan),
        ("poisson", "rate", math.inf),
        ("poisson", "horizon_s", math.nan),
        ("poisson", "horizon_s", math.inf),
        ("bursty", "burst_rate", math.inf),
        ("bursty", "on_s", math.nan),
        ("bursty", "off_s", math.inf),
        ("diurnal", "peak_rate", math.nan),
        ("diurnal", "period_s", math.inf),
    ])
    def test_non_finite_spec_is_rejected(self, kind, field, value):
        # Accepted, such a spec never reaches the horizon (t += nan)
        # and generate_arrivals grows its list without bound.
        with _deadline(2.0), pytest.raises(ValueError, match=field):
            generate_arrivals(replace(_spec(kind, horizon_s=0.5),
                                      **{field: value}), 0)


def _req(rid: int, at_ns: int, tokens: int = 8) -> Request:
    return Request(request_id=rid, arrival_ns=at_ns, tokens=tokens)


class TestBatchFormer:
    def test_fill_closes_at_last_arrival(self):
        former = BatchFormer(max_batch_size=2, max_wait_ns=1000)
        reqs = [_req(0, 0), _req(1, 100), _req(2, 200)]
        batch = former.next_batch(reqs, 0, free_ns=0, batch_id=0)
        assert [r.request_id for r in batch.requests] == [0, 1]
        assert batch.close_ns == 100  # fill: last member's arrival

    def test_deadline_close(self):
        former = BatchFormer(max_batch_size=8, max_wait_ns=1000)
        reqs = [_req(0, 0), _req(1, 400), _req(2, 5000)]
        batch = former.next_batch(reqs, 0, free_ns=0, batch_id=0)
        assert [r.request_id for r in batch.requests] == [0, 1]
        assert batch.close_ns == 1000  # deadline: eligible + max_wait

    def test_drain_closes_immediately(self):
        former = BatchFormer(max_batch_size=8, max_wait_ns=10_000)
        reqs = [_req(0, 0), _req(1, 400)]
        batch = former.next_batch(reqs, 0, free_ns=0, batch_id=0)
        assert len(batch.requests) == 2
        assert batch.close_ns == 400  # drain: no future arrivals

    def test_wait_clock_starts_when_server_frees(self):
        former = BatchFormer(max_batch_size=8, max_wait_ns=1000)
        reqs = [_req(0, 0), _req(1, 2500), _req(2, 9999999)]
        batch = former.next_batch(reqs, 0, free_ns=2000, batch_id=0)
        # First member queued until free_ns=2000; deadline 3000 admits
        # request 1 but not the far-future request 2.
        assert [r.request_id for r in batch.requests] == [0, 1]
        assert batch.close_ns == 3000

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchFormer(max_batch_size=0, max_wait_ns=0)
        with pytest.raises(ValueError):
            BatchFormer(max_batch_size=1, max_wait_ns=-1)
        with pytest.raises(ValueError):
            Batch(batch_id=0, requests=(), free_ns=0, close_ns=0)
        with pytest.raises(ValueError):
            Batch(batch_id=0, requests=(_req(0, 100),), free_ns=50,
                  close_ns=20)


def _outcome(fn, *args):
    """``fn(*args)``'s repr, or the message of the ``ValueError`` it
    raised."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def _share_cases(draw, allow_bad=True):
    """``(wall_ns, token_counts)``: 1-16 members, walls of 0 up to
    2**70, all-equal counts (every remainder tied), walls that divide
    exactly (nothing left over) and, unless ``allow_bad`` is off,
    negative walls and zero-token or empty member lists."""
    n = draw(st.integers(1, 16))
    if draw(st.booleans()):
        tokens = [draw(st.integers(1, 64))] * n
    else:
        tokens = draw(st.lists(st.integers(1, 64), min_size=n,
                               max_size=n))
    wall = draw(st.one_of(
        st.just(0), st.integers(0, 1000), st.integers(0, 2**70),
        st.integers(0, 10**6).map(lambda m: m * sum(tokens))))
    if allow_bad:
        bad = draw(st.sampled_from(["", "", "", "", "wall", "zero",
                                    "empty"]))
        if bad == "wall":
            wall = -draw(st.integers(1, 10**9))
        elif bad == "zero":
            tokens[draw(st.integers(0, n - 1))] = 0
        elif bad == "empty":
            tokens = []
    return wall, tokens


@st.composite
def _ledger_cases(draw):
    """``(batch, walls, model_walls, queue_depth)`` for 1-16 members,
    walls as Python or NumPy ints, now and then one negative."""
    _, tokens = draw(_share_cases(allow_bad=False))
    close = draw(st.integers(0, 10**12))
    arrivals = sorted(draw(st.lists(st.integers(0, close),
                                    min_size=len(tokens),
                                    max_size=len(tokens))))
    batch = Batch(
        batch_id=draw(st.integers(0, 10**6)),
        requests=tuple(Request(request_id=i, arrival_ns=a, tokens=t)
                       for i, (a, t) in enumerate(zip(arrivals, tokens))),
        free_ns=draw(st.integers(0, close)), close_ns=close)

    def stage_walls():
        cast = draw(st.sampled_from([int, np.int64]))
        walls = {s: cast(draw(_share_cases(allow_bad=False))[0]
                         % 2**62) for s in EXEC_STAGES}
        if draw(st.integers(0, 9)) == 0:
            walls[draw(st.sampled_from(EXEC_STAGES))] = -1
        return walls

    return batch, stage_walls(), stage_walls(), draw(st.integers(0, 64))


class TestLedgerConservation:
    def test_attribute_shares_sums_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            tokens = [int(rng.integers(1, 33)) for _ in range(n)]
            wall = int(rng.integers(0, 10**9))
            shares = attribute_shares(wall, tokens)
            assert sum(shares) == wall
            assert all(s >= 0 for s in shares)

    def test_attribute_shares_proportional_and_deterministic(self):
        shares = attribute_shares(100, [1, 1, 2])
        assert shares == [25, 25, 50]
        # Remainder goes to the largest fractional part; FIFO on ties.
        assert attribute_shares(10, [1, 1, 1]) == [4, 3, 3]
        with pytest.raises(ValueError):
            attribute_shares(-1, [1])
        with pytest.raises(ValueError):
            attribute_shares(10, [])
        with pytest.raises(ValueError):
            attribute_shares(10, [0, 1])

    @given(case=_share_cases())
    @settings(max_examples=400, deadline=None)
    def test_attribute_shares_matches_its_oracle(self, case):
        wall, tokens = case
        assert _outcome(attribute_shares, wall, tokens) \
            == _outcome(attribute_shares_reference, wall, tokens)

    @given(case=_ledger_cases())
    @settings(max_examples=300, deadline=None)
    def test_build_batch_ledger_matches_its_oracle(self, case):
        # repr() holds every field of both columns, dict key order and
        # the type of every number.
        assert _outcome(build_batch_ledger, *case) \
            == _outcome(build_batch_ledger_reference, *case)

    @pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_spans_sum_to_e2e_every_process_and_seed(self, kind, seed):
        """The tentpole invariant, directly over the ledger layer."""
        trace = generate_arrivals(_spec(kind, horizon_s=0.5), seed)
        former = BatchFormer(max_batch_size=8, max_wait_ns=10**7)
        rng = np.random.default_rng(seed)
        free_ns, start, batch_id = 0, 0, 0
        while start < len(trace):
            batch = former.next_batch(trace, start, free_ns, batch_id)
            walls = {s: int(rng.integers(0, 10**8))
                     for s in EXEC_STAGES}
            model_walls = {s: int(rng.integers(0, 10**8))
                          for s in EXEC_STAGES}
            ledger = build_batch_ledger(batch, walls, model_walls,
                                        queue_depth=0)
            for r in ledger.requests:
                # Exact: integer nanoseconds, no float rounding.
                assert stage_sum(r.spans) == r.e2e_ns
                assert stage_sum(r.model_spans) == r.model_e2e_ns
                assert r.spans["queue"] >= 0
                assert r.spans["batch_wait"] >= 0
                assert (r.spans["queue"] + r.spans["batch_wait"]
                        == batch.close_ns - r.arrival_ns)
            for s in EXEC_STAGES:
                assert sum(r.shares[s] for r in ledger.requests) \
                    == ledger.walls[s]
                assert sum(r.model_shares[s]
                           for r in ledger.requests) \
                    == ledger.model_walls[s]
            free_ns = ledger.done_ns
            start += ledger.size
            batch_id += 1
        assert batch_id > 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_engine_conservation_under_both_dtypes(self, dtype):
        """End-to-end through the real engine: conservation must hold
        bit-exactly whichever substrate dtype serves the batches."""
        prev = set_default_dtype(dtype)
        try:
            res = serve_workload(get_workload("bursty_spike"),
                                 fast=True, seed=1)
        finally:
            set_default_dtype(prev)
        assert res.requests
        for r in res.requests:
            assert stage_sum(r.spans) == r.e2e_ns
            assert stage_sum(r.model_spans) == r.model_e2e_ns
        for b in res.batches:
            for s in EXEC_STAGES:
                assert sum(r.shares[s] for r in b.requests) \
                    == b.walls[s]
                assert sum(r.model_shares[s] for r in b.requests) \
                    == b.model_walls[s]

    def test_stage_names(self):
        assert STAGES == ("queue", "batch_wait", "gate", "dispatch",
                          "expert_ffn", "combine")
        assert EXEC_STAGES == ("gate", "dispatch", "expert_ffn", "combine")


class TestPricing:
    def test_prices_are_positive_ints_and_scale_with_tokens(self):
        wl = get_workload("poisson_steady")
        small = price_stages(wl, tokens=8)
        big = price_stages(wl, tokens=256)
        for s in EXEC_STAGES:
            assert isinstance(small[s], int) and small[s] > 0
            assert big[s] > small[s]

    def test_brownout_derates_only_comm_stages(self):
        wl = get_workload("poisson_steady")
        nominal = price_stages(wl, tokens=64)
        browned = price_stages(wl, tokens=64, comm_derate=0.25)
        assert browned["gate"] == nominal["gate"]
        assert browned["expert_ffn"] == nominal["expert_ffn"]
        assert browned["dispatch"] > nominal["dispatch"]
        assert browned["combine"] > nominal["combine"]
        with pytest.raises(ValueError):
            price_stages(wl, tokens=64, comm_derate=0.0)
        with pytest.raises(ValueError):
            price_stages(wl, tokens=0)


#: Python-level calls (``call`` + ``c_call`` profile events) of one
#: frozen MoE.forward at serve_steady's shape, T = 70 (277 before the
#: glue was cut).  The forward's fixed cost at serve batch sizes is these
#: calls, not its NumPy work: a count that rises is glue coming back.
FROZEN_FORWARD_CALLS = 230


def test_frozen_forward_call_budget():
    import sys

    from repro import obs
    from repro.autograd.tensor import Tensor
    from repro.nn.moe import MoE

    wl = get_workload("poisson_steady")
    rng = np.random.default_rng(0)
    layer = MoE(wl.model_dim, wl.hidden_dim, wl.num_experts, rng,
                top_k=wl.top_k, capacity_factor=wl.capacity_factor)
    layer.freeze()
    x = Tensor(rng.standard_normal((70, wl.model_dim), dtype=np.float32))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    # The metrics-only observer serve_workload installs; the first
    # forward makes its stage histograms.
    previous = obs.set_observer(obs.Observer())
    try:
        layer.forward(x)
        sys.setprofile(count)
        try:
            layer.forward(x)
        finally:
            sys.setprofile(None)
    finally:
        obs.set_observer(previous)
    assert calls == FROZEN_FORWARD_CALLS


class TestEngine:
    def test_model_column_deterministic_across_runs(self):
        wl = get_workload("poisson_steady")
        a = serve_workload(wl, fast=True, seed=0)
        b = serve_workload(wl, fast=True, seed=0)
        ma = [(m.name, m.value) for m in a.metrics
              if m.kind == "model"]
        mb = [(m.name, m.value) for m in b.metrics
              if m.kind == "model"]
        assert ma == mb
        assert [r.model_e2e_ns for r in a.requests] \
            == [r.model_e2e_ns for r in b.requests]
        assert a.expert_load == b.expert_load

    def test_plain_replay_computes_no_routing_diagnostics(
            self, monkeypatch):
        # Without a run or alert rules nothing reads a layer's entropy
        # or Gini, so a replay computes neither.
        from repro.moe import metrics
        calls = []
        for name in ("routing_entropy", "load_gini"):
            real = getattr(metrics, name)
            monkeypatch.setattr(
                metrics, name,
                lambda *a, _n=name, _f=real, **k: calls.append(_n)
                or _f(*a, **k))
        monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
        res = serve_workload(get_workload("poisson_steady"), fast=True,
                             seed=0)
        assert res.batches and calls == []

    def test_plain_replay_computes_no_l_aux(self, monkeypatch):
        # The engine discards each layer's l_aux, so a replay never
        # computes the loss or the routed fractions it is made of.
        from functools import cached_property

        from repro.autograd.tensor import Tensor
        from repro.nn.moe import MoE, Routing
        calls = []
        for name in ("l_aux", "routed_frac"):
            real = Routing.__dict__[name].func
            counted = cached_property(
                lambda self, _n=name, _f=real: calls.append(_n)
                or _f(self))
            counted.__set_name__(Routing, name)
            monkeypatch.setattr(Routing, name, counted)
        monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
        res = serve_workload(get_workload("poisson_steady"), fast=True,
                             seed=0)
        assert res.batches and calls == []
        # The counters count: a read of a frozen forward's l_aux
        # computes both, once.
        layer = MoE(8, 16, 4, np.random.default_rng(0))
        layer.freeze()
        _, l_aux = layer(Tensor(np.ones((5, 8))))
        assert calls == []
        first = l_aux.data
        assert l_aux.data is first
        assert calls == ["l_aux", "routed_frac"]

    def test_emits_percentiles_goodput_and_checks(self):
        res = serve_workload(get_workload("poisson_steady"),
                             fast=True, seed=0)
        names = {m.name for m in res.metrics}
        assert {"model_p50_ms", "model_p95_ms", "model_p99_ms",
                "goodput_rps", "slo_pass", "requests",
                "measured_p99_ms", "wall_seconds"} <= names
        p50 = res.metric("model_p50_ms").value
        p99 = res.metric("model_p99_ms").value
        assert 0 < p50 <= p99
        assert res.metric("goodput_rps").value > 0
        kinds = {c.name.split(".")[-1] for c in res.checks}
        assert {"model_p99_ms", "goodput_rps"} <= kinds
        # Modeled metrics gate with tolerance 0 — the determinism
        # contract of BENCH_serving.json.
        assert res.metric("model_p99_ms").tolerance == 0.0
        assert res.metric("model_p99_ms").kind == "model"
        assert res.metric("measured_p99_ms").kind == "measured"

    def test_records_a_trace_only_for_a_caller_observer(
            self, monkeypatch):
        import repro.serve.engine as engine
        from repro import obs
        from repro.obs.trace import TraceRecorder
        wl = get_workload("poisson_steady")
        built = []
        record = TraceRecorder.record

        def counting_record(self, event):
            built.append(event)
            record(self, event)

        own = []

        def capturing_enable(**kwargs):
            own.append(obs.enable(**kwargs))
            return own[-1]

        monkeypatch.setattr(TraceRecorder, "record", counting_record)
        monkeypatch.setattr(engine, "obs_enable", capturing_enable)
        # Its own observer serves the measured column and is gone
        # afterwards: no trace event is built for nobody to read, and
        # it holds only the stage histograms and the routing gauges.
        res = serve_workload(wl, fast=True, seed=0)
        assert built == [] and obs.get_observer() is None
        assert res.metric("measured_p99_ms").value > 0
        reg = own[0].registry
        assert set(reg.histograms) == {f"moe.{s}" for s in EXEC_STAGES}
        assert set(reg.gauges) == {"routing.dropped_fraction",
                                   "routing.load_imbalance",
                                   "routing.needed_capacity_factor"}
        assert reg.counters == {}
        # A caller's observer is used as is, recorder included, and
        # gets every serve.* instrument and the flow events.
        ob = obs.enable()
        try:
            serve_workload(wl, fast=True, seed=0)
            assert obs.get_observer() is ob and len(own) == 1
            assert any(e.track == "serve/requests" and e.phase == "s"
                       for e in ob.recorder.events)
            reg = ob.registry
            assert {f"serve.{s}" for s in EXEC_STAGES} \
                <= set(reg.histograms)
            assert set(reg.counters) == {"serve.requests",
                                         "serve.batches"}
            assert reg.counters["serve.requests"].value \
                == len(res.requests)
            assert {"serve.queue_depth", "serve.model_p99_ms",
                    "serve.goodput_rps"} <= set(reg.gauges)
        finally:
            obs.disable()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_payload_rows_do_not_depend_on_batching(self, dtype,
                                                    monkeypatch):
        # Each request's input rows come from one stream per replay
        # drawn in arrival order: the same whichever batch carries it.
        import repro.serve.engine as engine
        inputs = []

        class Recording(engine.MoE):
            def forward(self, x):
                inputs.append((self, x.data.copy()))
                return super().forward(x)

        def rows_by_request(**overrides):
            inputs.clear()
            wl = replace(get_workload("poisson_steady"), **overrides)
            res = serve_workload(wl, fast=True, seed=3)
            first = [x for layer, x in inputs if layer is inputs[0][0]]
            assert len(first) == len(res.batches)
            rows = {}
            for b, x in zip(res.batches, first):
                assert x.dtype == dtype and len(x) == b.tokens
                at = 0
                for r in b.requests:
                    rows[r.request_id] = x[at:at + r.tokens]
                    at += r.tokens
            return rows, len(res.batches)

        monkeypatch.setattr(engine, "MoE", Recording)
        prev = set_default_dtype(dtype)
        try:
            wide, n_wide = rows_by_request()
            again, _ = rows_by_request()
            narrow, n_narrow = rows_by_request(max_batch_size=2)
        finally:
            set_default_dtype(prev)
        assert n_narrow > n_wide
        assert wide.keys() == again.keys() == narrow.keys()
        for rid, x in wide.items():
            assert np.array_equal(x, again[rid])
            assert np.array_equal(x, narrow[rid])

    def test_forced_slo_miss(self, monkeypatch):
        wl = WORKLOADS["poisson_steady"]
        monkeypatch.setitem(WORKLOADS, "poisson_steady",
                            replace(wl, slo=replace(wl.slo, p99_ms=1e-6)))
        res = serve_workload(get_workload("poisson_steady"),
                             fast=True, seed=0)
        assert not res.passed
        assert res.metric("slo_pass").value == 0.0
        miss = [c for c in res.checks
                if c.name.endswith("model_p99_ms")][0]
        assert not miss.passed and miss.bound == 1e-6

    def test_brownout_inflates_latency_and_emits_fault_events(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        wl = get_workload("brownout_surge")
        res = serve_workload(wl, fast=True, seed=0)
        calm = serve_workload(
            get_workload("poisson_steady"), fast=True, seed=0)
        assert res.metric("model_p99_ms").value \
            > calm.metric("model_p99_ms").value
        from repro.obs.runs import RunStore
        store = RunStore(tmp_path)
        run_id = store.manifests()[0].run_id
        kinds = {e.get("kind") for e in store.events(run_id)}
        assert {"serve", "serve_batch", "serve_request",
                "serving_load", "slo_check", "fault",
                "recovery"} <= kinds
        manifest = store.manifest(run_id)
        assert manifest.summary["serve.workload"] == "brownout_surge"
        assert manifest.summary["serve.requests"] == len(res.requests)

    def test_crashed_serve_run_is_failed_not_a_vacuous_pass(
            self, tmp_path, monkeypatch):
        # A loop that dies before any SLO check exists must not be
        # finalized "complete" with slo_pass = all([]) = True.
        import repro.serve.engine as engine
        from repro.obs import get_run
        from repro.obs.runs import RunStore

        def boom(*args, **kwargs):
            raise RuntimeError("pricing exploded")

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        monkeypatch.setattr(engine, "price_stages", boom)
        with pytest.raises(RuntimeError, match="pricing exploded"):
            serve_workload(get_workload("poisson_steady"), fast=True)
        assert get_run() is None
        store = RunStore(tmp_path)
        manifest = store.manifest(store.latest())
        assert manifest.status == "failed"
        assert manifest.summary == {"error": "RuntimeError"}
        kinds = {e["kind"] for e in store.events(manifest.run_id)}
        assert "slo_check" not in kinds

    def test_expert_load_statistic_shape(self):
        wl = get_workload("poisson_steady")
        res = serve_workload(wl, fast=True, seed=0)
        assert len(res.expert_load) == wl.num_layers
        assert all(len(row) == wl.num_experts
                   for row in res.expert_load)
        total_routed = sum(sum(row) for row in res.expert_load)
        assert total_routed > 0

    def test_replay_serves_frozen_layers(self, monkeypatch):
        # Serving never trains, so its layers are frozen and run the
        # array gate; routing and the modeled column must be exactly
        # those of the same replay through the taped path.
        import repro.serve.engine as engine
        built = []

        class Recording(engine.MoE):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(engine, "MoE", Recording)
        wl = get_workload("poisson_steady")
        frozen = serve_workload(wl, fast=True, seed=0)
        assert len(built) == wl.num_layers
        assert all(layer.parameters() == [] for layer in built)

        built.clear()
        monkeypatch.setattr(Recording, "freeze", lambda self: None)
        taped = serve_workload(wl, fast=True, seed=0)
        assert all(layer.parameters() for layer in built)
        for name in ("dropped_fraction", "expert_load_gini",
                     "model_p50_ms", "model_p95_ms", "model_p99_ms"):
            assert frozen.metric(name).value == taped.metric(name).value
        assert frozen.expert_load == taped.expert_load

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_queue_depth_counts_the_waiting_tail(self, name):
        # The engine bisects the sorted arrival times; the scan over
        # the requests behind the batch is the definition.
        wl = get_workload(name).resolved(fast=True, seed=0)
        requests = generate_arrivals(wl.arrival, wl.seed)
        res = serve_workload(wl)
        end = 0
        for ledger in res.batches:
            end += ledger.size
            assert ledger.queue_depth == sum(
                1 for r in requests[end:] if r.arrival_ns <= ledger.close_ns)
        assert end == len(requests)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_modeled_ledger_matches_its_golden_digest(self, name):
        # The tolerance-0 percentiles would miss a permuted share; this
        # pins batch composition and apportionment bit for bit.
        res = serve_workload(get_workload(name), fast=True, seed=0)
        h = hashlib.sha256()
        for r in res.requests:
            h.update(repr((r.request_id, r.batch_id,
                           [r.model_spans[s] for s in STAGES],
                           [r.model_shares[s] for s in EXEC_STAGES])
                          ).encode())
        for b in res.batches:
            h.update(repr(([b.model_walls[s] for s in EXEC_STAGES],
                           b.queue_depth)).encode())
        assert h.hexdigest() == _MODEL_LEDGER_SHA256[name]

    def test_slo_check_semantics(self):
        assert SLOCheck("x", 1.0, 2.0, "<=").passed
        assert not SLOCheck("x", 3.0, 2.0, "<=").passed
        assert SLOCheck("x", 3.0, 2.0, ">=").passed


class TestWorkloadRegistry:
    def test_names_and_lookup(self):
        assert {"poisson_steady", "bursty_spike", "diurnal_cycle",
                "brownout_surge"} == set(WORKLOADS)
        with pytest.raises(KeyError):
            get_workload("nope")

    def test_fast_keeps_brownout_window_in_horizon(self):
        wl = WORKLOADS["brownout_surge"].resolved(fast=True)
        assert wl.brownout is not None
        assert wl.brownout.step < wl.arrival.horizon_s

    def test_resolved_overrides(self):
        wl = WORKLOADS["poisson_steady"]
        fast = wl.resolved(fast=True, seed=9)
        assert fast.seed == 9
        assert fast.arrival.horizon_s \
            == pytest.approx(wl.arrival.horizon_s * wl.fast_factor)
        assert wl.resolved() is wl

    @pytest.mark.parametrize("override", [
        {"capacity_factor": 0.0}, {"capacity_factor": -2.0},
        {"capacity_factor": math.nan}, {"capacity_factor": math.inf},
        {"top_k": 0}, {"top_k": 9}])
    def test_unpriceable_shape_rejected(self, override):
        """The modeled column prices ``C = ceil(k*T*f/E)``: an adaptive
        capacity factor (f <= 0) or a top-k outside [1, E] has no price,
        so the workload is refused before any model is built."""
        with pytest.raises(ValueError, match=next(iter(override))):
            replace(WORKLOADS["poisson_steady"], **override)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_max_wait_must_be_finite(self, value):
        with _deadline(2.0), pytest.raises(ValueError, match="max_wait_ms"):
            serve_workload(replace(WORKLOADS["poisson_steady"],
                                   max_wait_ms=value), fast=True)
