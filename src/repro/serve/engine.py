"""The virtual-clock serving loop over a stack of real MoE layers.

The engine replays a seeded arrival trace through the continuous
batcher and serves every batch **twice over, in one pass**:

* the **modeled column** prices each batch's four MoE stages with a
  closed-form cost model (gate and expert FFN flops on a nominal
  compute throughput; dispatch/combine payload bytes on a nominal
  serving-fabric bandwidth, derated during a brownout window).  These
  integer-nanosecond prices advance the virtual clock, so batch
  composition, queue depths, and the SLO percentiles are bit-stable
  across machines — gateable with tolerance 0;
* the **measured column** runs the batch through the real NumPy MoE
  stack and reads the four stage walls from the deltas of the
  observer's ``moe.<stage>`` histograms, which the layers' stage
  clocks (:func:`repro.obs.stage`) record.  Wall-clock numbers ride
  along in every artifact (HetuMoE methodology) but never steer the
  clock and never gate determinism.

Every request leaves with a fully attributed
:class:`repro.serve.ledger.RequestLedger`; batches, requests, queue
depth, per-(layer, expert) load, and SLO verdicts stream into the run
registry, and per-request flow events land in the Chrome trace of a
caller-installed observer (``repro serve --trace``).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.autograd.tensor import Tensor
from repro.bench.report import Metric, NamedRunResult, SLOCheck
from repro.core.config import expert_capacity
from repro.core.substrate import default_dtype
from repro.moe.metrics import load_gini
from repro.nn.moe import MoE
from repro.obs import CAT_SERVE, Observer, get_observer
from repro.obs import enable as obs_enable
from repro.obs import disable as obs_disable
from repro.obs.loop import LoopTelemetry
from repro.obs.registry import Histogram
from repro.serve.arrivals import NS, generate_arrivals
from repro.serve.batcher import BatchFormer
from repro.serve.ledger import (
    EXEC_STAGES,
    STAGES,
    BatchLedger,
    RequestLedger,
    build_batch_ledger,
)
from repro.serve.workloads import ServeWorkload

__all__ = ["ServeResult", "serve_workload",
           "COMPUTE_FLOPS_PER_S", "COMM_BYTES_PER_S", "LAUNCH_NS"]

# ----------------------------------------------------------------------
# The serving cost model
# ----------------------------------------------------------------------
# Nominal rates scaled so that queueing dynamics are visible at the toy
# layer dimensions the committed workloads serve: a full batch prices
# at ~20 ms, putting the steady workload near 50% utilization and the
# burst/peak/brownout workloads past the capacity knee.

#: Dense-math throughput pricing ``gate`` and ``expert_ffn`` stage flops.
COMPUTE_FLOPS_PER_S = 5.0e8
#: Serving-fabric bandwidth pricing ``dispatch``/``combine`` payloads.
COMM_BYTES_PER_S = 20.0e6
#: Per-stage, per-layer launch overhead (kernel + framework).
LAUNCH_NS = 30_000
#: Serving payloads are float32 on the wire.
BYTES_PER_VALUE = 4


def price_stages(wl: ServeWorkload, tokens: int,
                 comm_derate: float = 1.0) -> dict[str, int]:
    """Closed-form modeled stage walls (integer ns) for one batch.

    Per layer, for ``T`` tokens with model dim ``M``, hidden ``H``,
    ``E`` experts, top-``k`` and capacity factor ``f``:

    * ``gate``       — ``2·T·M·E`` flops (router GEMM + selection);
    * ``dispatch``   — ``T·k·M`` float32 values over the serving
      fabric (the All-to-All scatter analogue);
    * ``expert_ffn`` — ``4·E·C·M·H`` flops with the Equation (1)
      capacity ``C = ceil(k·f·T/E)`` (two GEMMs, forward only, priced
      as if every expert ran ``C`` rows; the real expert kernel
      multiplies only the occupied rows);
    * ``combine``    — ``T·k·M`` values back over the fabric.

    ``comm_derate`` < 1 models a brownout: fabric stages slow by its
    inverse.  Pure float arithmetic rounded once to integer
    nanoseconds — no wall-clock input, so prices are bit-stable.
    """
    if tokens < 1:
        raise ValueError(f"tokens must be >= 1, got {tokens}")
    if not 0.0 < comm_derate <= 1.0:
        raise ValueError(
            f"comm_derate must be in (0, 1], got {comm_derate}")
    m, h, e, k = wl.model_dim, wl.hidden_dim, wl.num_experts, wl.top_k
    cap = expert_capacity(k, wl.capacity_factor, tokens, e)
    comm_bytes = tokens * k * m * BYTES_PER_VALUE
    seconds = {
        "gate": 2.0 * tokens * m * e / COMPUTE_FLOPS_PER_S,
        "dispatch": comm_bytes / (COMM_BYTES_PER_S * comm_derate),
        "expert_ffn": 4.0 * e * cap * m * h / COMPUTE_FLOPS_PER_S,
        "combine": comm_bytes / (COMM_BYTES_PER_S * comm_derate),
    }
    return {s: wl.num_layers * (LAUNCH_NS + round(seconds[s] * NS))
            for s in EXEC_STAGES}


# ----------------------------------------------------------------------
# Result container
# ----------------------------------------------------------------------

@dataclass
class ServeResult(NamedRunResult):
    """Everything one workload run produced."""

    workload: ServeWorkload
    fast: bool
    requests: list[RequestLedger] = field(default_factory=list)
    batches: list[BatchLedger] = field(default_factory=list)
    checks: list[SLOCheck] = field(default_factory=list)
    metrics: list[Metric] = field(default_factory=list)
    #: Per-(layer, expert) routed-token counts over the whole run —
    #: the MoETuner-style serving-load statistic.
    expert_load: list[list[int]] = field(default_factory=list)
    makespan_s: float = 0.0
    wall_seconds: float = 0.0
    run_id: str | None = None

    def describe(self) -> str:
        wl = self.workload
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"workload {wl.name} (seed {wl.seed}"
            f"{', fast' if self.fast else ''}) -> {verdict}",
            f"  {wl.title}",
            f"  {len(self.requests)} requests in {len(self.batches)} "
            f"batches over {self.makespan_s:.3f} virtual s "
            f"({self.wall_seconds:.3f} wall s)",
            "-- SLO report --",
        ]
        for check in self.checks:
            lines.append(f"  {check.describe()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The serving loop
# ----------------------------------------------------------------------

def _measured_walls(ob: Observer) -> dict[str, float]:
    """Cumulative seconds in each ``moe.<stage>`` histogram."""
    return {s: ob.registry.histogram(f"moe.{s}").total
            for s in EXEC_STAGES}


def _brownout_active(wl: ServeWorkload, at_ns: int) -> bool:
    if wl.brownout is None:
        return False
    return wl.brownout.step * NS <= at_ns < wl.brownout.end_step * NS


def _emit_trace(ob: Observer, ledger: BatchLedger) -> None:
    """Virtual-timeline spans + per-request flow events."""
    rec = ob.recorder
    t = ledger.close_ns
    for stage in EXEC_STAGES:
        ob.record_span(stage, CAT_SERVE, t / NS,
                       ledger.model_walls[stage] / NS,
                       track="serve/engine",
                       args={"batch": ledger.batch_id,
                             "tokens": ledger.tokens})
        t += ledger.model_walls[stage]
    if rec is None:
        return
    for r in ledger.requests:
        rec.span(f"req {r.request_id}", CAT_SERVE,
                 r.arrival_ns / NS, r.model_e2e_ns / NS,
                 track="serve/requests",
                 args={"tokens": r.tokens, "batch": r.batch_id,
                       "spans_ns": dict(r.model_spans)})
        rec.flow(f"req {r.request_id}", CAT_SERVE, "s",
                 r.arrival_ns / NS, flow_id=r.request_id,
                 track="serve/requests")
        rec.flow(f"req {r.request_id}", CAT_SERVE, "f",
                 ledger.close_ns / NS, flow_id=r.request_id,
                 track="serve/engine")


def serve_workload(workload: ServeWorkload, *, fast: bool = False,
                   seed: int | None = None) -> ServeResult:
    """Serve one workload's arrival trace end to end.

    Returns the :class:`ServeResult`; inspect ``.passed`` for the SLO
    verdict.
    """
    wl = workload.resolved(fast=fast, seed=seed)
    requests = generate_arrivals(wl.arrival, wl.seed)
    if not requests:
        raise ValueError(
            f"workload {wl.name!r} produced an empty arrival trace")
    result = ServeResult(workload=wl, fast=fast)

    # The measured column needs only the stage histograms: an observer
    # made here gets those and the routing gauges, nothing else (nobody
    # could read it); a caller's observer, recorder included, gets the
    # serve.* instruments and the trace as well.
    own_obs = get_observer() is None
    ob = obs_enable(trace=False) if own_obs else get_observer()
    try:
        # Per-batch alerting against this workload's SLO bounds; the
        # brownout's fault/recovery events feed faults.outstanding.
        with LoopTelemetry(
                "serve", seed=wl.seed, substrate="serve",
                config={"workload": wl.name, "fast": fast,
                        "requests": len(requests)},
                default_rules={"p99_ms": wl.slo.p99_ms,
                               "min_goodput_rps": wl.slo.min_goodput_rps},
        ) as tel:
            result.run_id = tel.run_id
            tel.event("serve", {
                "kind": "begin", "workload": wl.name, "seed": wl.seed,
                "fast": fast, "requests": len(requests),
                "horizon_s": wl.arrival.horizon_s}, 0)
            _serve_loop(wl, requests, result, ob, tel,
                        publish=not own_obs)
            if tel.run is not None:
                _record_outcome(tel, result)
    finally:
        if own_obs:
            obs_disable()
    return result


def _record_outcome(tel: LoopTelemetry, result: ServeResult) -> None:
    """The run's closing events and manifest summary."""
    value = {m.name: m.value for m in result.metrics}
    tel.event("serving_load", {
        "workload": result.workload.name,
        "gini": value["expert_load_gini"],
        "dropped_fraction": value["dropped_fraction"],
        "span_totals_ns": {
            s: sum(r.model_spans[s] for r in result.requests)
            for s in STAGES}})
    for check in result.checks:
        tel.event("slo_check", check.event_data(), -1)
    tel.summary({
        "serve.workload": result.workload.name,
        "serve.requests": len(result.requests),
        "serve.batches": len(result.batches),
        "serve.model_p99_ms": value["model_p99_ms"],
        "serve.goodput_rps": value["goodput_rps"],
        "serve.slo_pass": result.passed,
        "serve.checks_failed": sum(1 for c in result.checks
                                   if not c.passed),
    })


def _serve_loop(wl: ServeWorkload, requests, result: ServeResult,
                ob: Observer, tel: LoopTelemetry, *,
                publish: bool) -> None:
    t_wall0 = time.perf_counter()
    rng = np.random.default_rng(wl.seed)
    layers = [MoE(wl.model_dim, wl.hidden_dim, wl.num_experts, rng,
                  top_k=wl.top_k, capacity_factor=wl.capacity_factor)
              for _ in range(wl.num_layers)]
    # Serving never trains: frozen layers build no autograd tape.
    for layer in layers:
        layer.freeze()
    former = BatchFormer(wl.max_batch_size,
                         max_wait_ns=round(wl.max_wait_ms * 1e6))
    loads = [[0] * wl.num_experts for _ in range(wl.num_layers)]
    dropped_tokens = 0
    routed_tokens = 0

    # generate_arrivals returns the trace sorted by arrival time.
    arrivals = [r.arrival_ns for r in requests]
    hist_model = Histogram(f"serve.{wl.name}.model_ms")
    hist_measured = Histogram(f"serve.{wl.name}.measured_ms")

    deadline_ns = round(wl.slo.deadline_ms * 1e6)
    on_time = 0
    # Rolling p99 and goodput feed only a caller's observer, a run or
    # an alert engine.
    rolling = publish or tel.run is not None or tel.engine is not None

    free_ns = 0
    start = 0
    batch_id = 0
    brownout_was_active = False
    while start < len(requests):
        tel.begin(batch_id)
        batch = former.next_batch(requests, start, free_ns, batch_id)
        end = start + len(batch.requests)
        queue_depth = bisect_right(arrivals, batch.close_ns, lo=end) - end

        active = _brownout_active(wl, batch.close_ns)
        if active and not brownout_was_active:
            tel.event("fault", {
                "kind": "link_brownout", "factor": wl.brownout.factor,
                "at_s": batch.close_ns / NS})
        if brownout_was_active and not active:
            tel.event("recovery", {
                "kind": "brownout_cleared", "at_s": batch.close_ns / NS})
        brownout_was_active = active
        derate = wl.brownout.factor if active else 1.0
        model_walls = price_stages(wl, batch.tokens, comm_derate=derate)

        # The measured column: a real forward through the MoE stack.
        # Batches take consecutive requests, so one stream drawn in
        # arrival order gives each request the same rows however the
        # batcher grouped it.
        x = Tensor(rng.standard_normal((batch.tokens, wl.model_dim),
                                       dtype=default_dtype()))
        before = _measured_walls(ob)
        for li, layer in enumerate(layers):
            x, _ = layer.forward(x)
            stats = layer.last_routing_stats
            if stats is not None:
                for e, n in enumerate(stats.expert_load):
                    loads[li][e] += int(n)
                routed_tokens += stats.num_tokens
                dropped_tokens += round(stats.dropped_fraction
                                        * stats.num_tokens)
        after = _measured_walls(ob)
        walls = {s: max(0, round((after[s] - before[s]) * NS))
                 for s in EXEC_STAGES}

        ledger = build_batch_ledger(batch, walls, model_walls,
                                    queue_depth)
        result.batches.append(ledger)
        result.requests.extend(ledger.requests)
        for r in ledger.requests:
            e2e_ns = r.model_e2e_ns
            hist_model.observe(e2e_ns / 1e6)
            hist_measured.observe(r.e2e_ns / 1e6)
            on_time += e2e_ns <= deadline_ns

        counts = gauges = None
        if rolling:
            # Rolling goodput on the virtual clock: requests done within
            # the deadline so far over simulated seconds elapsed so far.
            rolling_goodput = (on_time / (ledger.done_ns / NS)
                               if ledger.done_ns > 0 else 0.0)
            rolling_p99 = hist_model.quantile(0.99)
        if publish:
            _emit_trace(ob, ledger)
            counts = {"serve.requests": len(ledger.requests),
                      "serve.batches": 1}
            gauges = {"serve.queue_depth": queue_depth,
                      "serve.model_p99_ms": rolling_p99,
                      "serve.goodput_rps": rolling_goodput}
        tel.tick(
            batch_id, "serve_batch", lambda: {
                "batch": batch_id, "close_ms": batch.close_ns / 1e6,
                "size": ledger.size, "tokens": ledger.tokens,
                "queue_depth": queue_depth,
                "service_model_ms": ledger.service_ns / 1e6,
                "service_measured_ms": ledger.measured_service_ns / 1e6,
                "model_walls_ns": dict(ledger.model_walls),
                "p50_ms": hist_model.quantile(0.50),
                "p95_ms": hist_model.quantile(0.95),
                "p99_ms": rolling_p99, "goodput_rps": rolling_goodput,
                "brownout": active},
            layers=layers, counts=counts, gauges=gauges)
        if tel.run is not None:
            for r in ledger.requests:
                tel.event("serve_request", r.event_data())

        free_ns = ledger.done_ns
        start = end
        batch_id += 1

    result.wall_seconds = time.perf_counter() - t_wall0
    _finish(wl, result, hist_model, hist_measured, loads,
            routed_tokens, dropped_tokens, on_time)


def _finish(wl: ServeWorkload, result: ServeResult,
            hist_model: Histogram, hist_measured: Histogram,
            loads, routed_tokens: int, dropped_tokens: int,
            on_time: int) -> None:
    result.expert_load = [list(row) for row in loads]
    makespan_ns = result.batches[-1].done_ns
    result.makespan_s = makespan_ns / NS
    goodput = on_time / result.makespan_s
    model_p = {q: hist_model.quantile(q) for q in (0.50, 0.95, 0.99)}
    meas_p = {q: hist_measured.quantile(q) for q in (0.50, 0.95, 0.99)}
    dropped_fraction = (dropped_tokens / routed_tokens
                        if routed_tokens else 0.0)
    gini = load_gini([n for row in loads for n in row])

    result.checks.append(SLOCheck(
        name=f"{wl.name}.model_p99_ms", value=model_p[0.99],
        bound=wl.slo.p99_ms, op="<="))
    result.checks.append(SLOCheck(
        name=f"{wl.name}.goodput_rps", value=goodput,
        bound=wl.slo.min_goodput_rps, op=">="))
    if wl.slo.measured_p99_ms is not None:
        result.checks.append(SLOCheck(
            name=f"{wl.name}.measured_p99_ms", value=meas_p[0.99],
            bound=wl.slo.measured_p99_ms, op="<=", measured=True))

    mean_batch = len(result.requests) / len(result.batches)
    max_depth = max(b.queue_depth for b in result.batches)
    # Modeled metrics gate exactly (tolerance 0 — any drift is a
    # determinism break); routing-derived numbers get slack for BLAS
    # reduction-order variance; wall-clock rides along ungated.
    result.metrics = [
        Metric("requests", float(len(result.requests)), "count",
               kind="model", tolerance=0.0),
        Metric("batches", float(len(result.batches)), "count",
               kind="model", tolerance=0.0),
        Metric("mean_batch_size", mean_batch, "requests",
               kind="model", tolerance=0.0),
        Metric("max_queue_depth", float(max_depth), "requests",
               kind="model", tolerance=0.0),
        Metric("model_p50_ms", model_p[0.50], "ms", kind="model",
               higher_is_better=False, tolerance=0.0),
        Metric("model_p95_ms", model_p[0.95], "ms", kind="model",
               higher_is_better=False, tolerance=0.0),
        Metric("model_p99_ms", model_p[0.99], "ms", kind="model",
               higher_is_better=False, tolerance=0.0),
        Metric("goodput_rps", goodput, "req/s", kind="model",
               higher_is_better=True, tolerance=0.0),
        Metric("slo_pass", 1.0 if result.passed else 0.0, "bool",
               kind="model", higher_is_better=True, tolerance=0.0),
        Metric("dropped_fraction", dropped_fraction, "fraction",
               kind="model", higher_is_better=False, tolerance=0.25),
        Metric("expert_load_gini", gini, "gini", kind="model",
               higher_is_better=False, tolerance=0.25),
        Metric("measured_p50_ms", meas_p[0.50], "ms", kind="measured",
               higher_is_better=False, tolerance=0.5),
        Metric("measured_p99_ms", meas_p[0.99], "ms", kind="measured",
               higher_is_better=False, tolerance=0.5),
        Metric("wall_seconds", result.wall_seconds, "s",
               kind="measured", higher_is_better=False, tolerance=1.0),
    ]
