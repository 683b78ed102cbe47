"""One benchmark phase, in its own pinned process.

``run.py`` starts ``worker.py <phase> <json-config>`` once per phase and
reads one JSON object from the last line of stdout.  Phases:

* ``gate``  — correctness gate, before anything is timed;
* ``probe`` — fresh interpreter -> imports -> build -> first root;
* ``audit`` — fixed work without reference buffers: fingerprint, kept
  tokens, RSS;
* ``timed`` — the block/reference interleave, untraced or traced.

The program is driven through its public entry points with user
defaults (``train_model``, ``serve_workload``); every ``REPRO_*``
variable is stripped by ``run.py``.
"""

from __future__ import annotations

from time import perf_counter_ns

T_PROCESS_START = perf_counter_ns()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent

LOSS_DROP = 0.9      # training loss after the fingerprint steps < 0.9 x initial
GATE_TOL = 1e-4      # sparse forward == independent dense rebuild
# The reference's buffers are re-allocated every this many blocks: where
# a large array lands in physical memory biases its speed by ~2 % for as
# long as it lives, so one allocation per process is one draw of that
# bias (measured on serve_wide: same-seed process-to-process sd 1.6 % ->
# 0.9 % with re-allocation).
REF_REFRESH_BLOCKS = 6


class GateError(Exception):
    """A correctness gate failed; the run yields no metrics."""


def _rss_mb(field: str) -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} not in /proc/self/status")


# ----------------------------------------------------------------------
# Gate
# ----------------------------------------------------------------------

def _dense_rebuild(layer, x, shape, np):
    """The layer's output rebuilt from independent routing + the dense
    GShard encode/decode — nothing shared with the sparse forward but
    the weights.  Capacity comes from Equation (1) here, not from the
    program, so a wrong capacity in the program fails the gate."""
    from repro.moe.encode import dense_decode, dense_encode
    from repro.moe.gating import RoutingCriteria

    t = x.shape[0]
    e, k = shape["num_experts"], shape["top_k"]
    logits = x @ layer.gate.weight.data
    logits = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs = probs / probs.sum(axis=1, keepdims=True)
    order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    idxs = order.T.copy()
    counts = [0] * e
    locations = np.empty((k, t), dtype=np.int64)
    for slot in range(k):          # slot-major, batch order (GShard)
        for tok in range(t):
            expert = int(idxs[slot, tok])
            locations[slot, tok] = counts[expert]
            counts[expert] += 1
    capacity = max(1, math.ceil(k * shape["capacity_factor"] * t / e))
    gates = np.take_along_axis(probs, order, axis=1).T
    if k > 1:
        gates = gates / (gates.sum(axis=0, keepdims=True) + 1e-12)
    gates = np.where(locations < capacity, gates, 0.0).astype(x.dtype)
    crit = RoutingCriteria(idxs=idxs, locations=locations, gates=gates,
                           capacity=capacity, num_experts=e)
    hidden = np.matmul(dense_encode(x, crit), layer.w1.data)
    act = 0.5 * hidden * (1.0 + np.tanh(
        math.sqrt(2.0 / math.pi) * (hidden + 0.044715 * hidden ** 3)))
    return dense_decode(np.matmul(act, layer.w2.data), crit)


def phase_gate(cfg: dict) -> dict:
    import numpy as np
    from repro.autograd.tensor import Tensor
    from repro.nn.moe import MoE

    import workloads

    wl = cfg["wl"]
    serve = (workloads.build_serve(wl, cfg["workload"])
             if wl["kind"] == "serve" else None)
    shape = workloads.moe_shape(wl, serve)
    worst = 0.0
    for tokens in shape["tokens"]:
        rng = np.random.default_rng(workloads.sub_seed(cfg["seed"], tokens))
        layer = MoE(shape["model_dim"], shape["hidden_dim"],
                    shape["num_experts"], rng, top_k=shape["top_k"],
                    capacity_factor=shape["capacity_factor"])
        x = rng.standard_normal(
            (tokens, shape["model_dim"])).astype(layer.w1.data.dtype)
        sparse, _ = layer.forward(Tensor(x))
        dense = _dense_rebuild(layer, x, shape, np)
        err = float(np.abs(sparse.data - dense).max()
                    / max(1.0, np.abs(dense).max()))
        worst = max(worst, err)
        if not err <= GATE_TOL:
            raise GateError(
                f"sparse MoE.forward != dense rebuild at T={tokens}: "
                f"relative error {err:.3e} > {GATE_TOL}")
    return {"gate_error": worst}


# ----------------------------------------------------------------------
# Shared pieces of the train and serve drivers
# ----------------------------------------------------------------------

class Blocks:
    """Block walls, the references between them, and (traced) the span
    and root counts at each block end."""

    def __init__(self, wl: dict, tracer=None) -> None:
        self.wl = wl
        self.ref = _make_reference(wl)
        self.tracer = tracer
        self.walls_ns: list[int] = []
        self.work: list[int] = []
        self.refs_ns: list[int] = []
        self.span_end: list[int] = []
        self.root_end: list[int] = []

    def reference(self) -> None:
        if len(self.refs_ns) % REF_REFRESH_BLOCKS == REF_REFRESH_BLOCKS - 1:
            self.ref = _make_reference(self.wl)
        self.refs_ns.append(self.ref.step())

    def close(self, wall_ns: int, work: int) -> None:
        self.walls_ns.append(wall_ns)
        self.work.append(work)
        if self.tracer is not None:
            self.span_end.append(len(self.tracer.spans))
            self.root_end.append(len(self.tracer.roots))

    def result(self) -> dict:
        return {"walls_ns": self.walls_ns, "work": self.work,
                "refs_ns": self.refs_ns}


def _make_reference(wl: dict):
    import workloads
    from reference import WorkloadReference

    ref = WorkloadReference(workloads.ref_spec(wl))
    for _ in range(2):          # first calls pay the page faults
        ref.step()
    return ref


def _traced_layers(tracer, blocks: Blocks, wl: dict, serve: bool,
                   pool_before: tuple[int, int], spans_out: str | None):
    """Conservation check, per-layer metrics, optional span dump."""
    import layers
    from repro.moe.encode import dispatch_buffer_pool

    tracer.check_conservation()
    ref_nominal_ns = wl["ref_nominal_s"] * 1e9
    refs = blocks.refs_ns
    scales = [ref_nominal_ns / ((refs[b] + refs[b + 1]) / 2.0)
              for b in range(len(blocks.walls_ns))]
    out = layers.layer_metrics(
        tracer, blocks.span_end, blocks.root_end,
        blocks.walls_ns if serve else [], scales)
    pool = dispatch_buffer_pool()
    hits = pool.hits - pool_before[0]
    misses = pool.misses - pool_before[1]
    out["moe.encode.pool_hit_rate"] = (hits / (hits + misses)
                                       if hits + misses else None)
    out["moe.encode.pool_arrays_held"] = sum(
        len(slots) for slots in pool._free.values())
    if spans_out:
        os.makedirs(os.path.dirname(spans_out), exist_ok=True)
        with open(spans_out, "w") as fh:
            json.dump({"span": ["name", "start_ns", "end_ns", "parent",
                                "root", "attrs"],
                       "spans": tracer.spans, "roots": tracer.roots}, fh)
    return out


def _pool_counters() -> tuple[int, int]:
    from repro.moe.encode import dispatch_buffer_pool
    pool = dispatch_buffer_pool()
    return pool.hits, pool.misses


# ----------------------------------------------------------------------
# Train
# ----------------------------------------------------------------------

def _train(cfg: dict, steps: int, hook):
    """Build from the seed and run ``train_model`` with user defaults."""
    from repro.train.trainer import train_model

    import workloads

    wl = cfg["wl"]
    model, _, train, test = workloads.build_train(wl, cfg["seed"])
    return train_model(model, train, test, steps=steps,
                       batch_size=wl["batch_size"], seed=cfg["seed"],
                       step_hook=hook)


def _train_fingerprint(result, roots: int) -> list[str]:
    """Bit-exact loss trajectory of the first ``roots`` steps."""
    return [float(x).hex() for x in result.losses[:roots]]


def train_audit(cfg: dict) -> dict:
    """Kept-token audit on the initial routers, then the fingerprint
    steps.  Training trajectories are chaotic (kept fraction after a
    few hundred steps moves 2x with the data seed or with a reordered
    float sum), so the kept fraction is taken forward-only at
    initialisation, where it depends on the routing code and the
    capacity rule alone."""
    import numpy as np
    from repro.train.trainer import evaluate

    import workloads

    wl, plan = cfg["wl"], cfg["plan"]
    model, task, _, _ = workloads.build_train(wl, cfg["seed"])
    rng = np.random.default_rng(workloads.sub_seed(cfg["seed"], 1))
    slots = dropped = 0
    for _ in range(plan["audit_batches"]):
        evaluate(model, task.sample(wl["batch_size"], rng))
        for layer in model.moe_layers():
            stats = layer.last_routing_stats
            n = stats.num_tokens * stats.top_k
            slots += n
            dropped += round(stats.dropped_fraction * n)
    del model

    roots = plan["fingerprint_roots"]
    rss = {}

    def hook(step, model):
        if step == plan["warm_roots"]:
            rss["warm"] = _rss_mb("VmRSS")

    result = _train(cfg, roots, hook)
    first, last = result.losses[0], result.final_train_loss
    if not last < LOSS_DROP * first:
        raise GateError(f"training loss {last:.4f} after {roots} steps is "
                        f"not < {LOSS_DROP} x initial {first:.4f}")
    return {"fingerprint": _train_fingerprint(result, roots),
            "routed_slots": slots, "dropped_slots": dropped,
            "attempted": roots, "failed": len(result.skipped_steps),
            "skipped_steps": len(result.skipped_steps),
            "rss_growth_mb": _rss_mb("VmRSS") - rss["warm"],
            "peak_rss_mb": _rss_mb("VmHWM")}


def train_timed(cfg: dict) -> dict:
    """``blocks`` blocks of ``k`` steps inside ONE ``train_model`` call,
    a reference step between consecutive blocks.  A block is timed from
    the exit of the hook that opens it to the entry of the hook that
    closes it, so the Python between steps counts."""
    wl, plan = cfg["wl"], cfg["plan"]
    traced = cfg["traced"]
    k, warm = plan["roots_per_block"], plan["warm_roots"]
    n_blocks = plan["traced_blocks"] if traced else plan["blocks"]
    last = warm + n_blocks * k      # the hook of this step closes the run
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
    blocks = Blocks(wl, tracer)
    state = {"start": 0}
    clock = perf_counter_ns

    def hook(step, model):
        t_in = clock()
        if tracer is not None:
            tracer.end_root(t_in)
        i = step - warm
        boundary = 0 <= i <= n_blocks * k and i % k == 0
        if boundary:
            if i > 0:
                blocks.close(t_in - state["start"], k * wl["batch_size"])
            if traced and i == 0:
                import layers
                tracer.install(layers.TRACE_TABLE)
                state["pool"] = _pool_counters()
            if traced and step == last:
                tracer.uninstall()
            blocks.reference()
        t_out = clock()
        if boundary:
            state["start"] = t_out
        if tracer is not None and 0 <= i < n_blocks * k:
            tracer.begin_root(t_out)

    try:
        # One step past the last block: its hook closes the block, and
        # the step itself (plus the final evaluation) is not measured.
        result = _train(cfg, last + 1, hook)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = blocks.result()
    out.update({
        "fingerprint": _train_fingerprint(result, plan["fingerprint_roots"]),
        "attempted": last + 1, "failed": len(result.skipped_steps),
        "skipped_steps": len(result.skipped_steps)})
    if traced:
        out["layers"] = _traced_layers(tracer, blocks, wl, False,
                                       state["pool"], cfg.get("spans_out"))
    return out


def train_probe(cfg: dict, marks: dict) -> None:
    import workloads  # noqa: F401  (import cost is part of set-up)
    from repro.train.trainer import train_model  # noqa: F401
    marks["imported"] = perf_counter_ns()

    def hook(step, model):
        if step == 0:
            marks["built"] = perf_counter_ns()
        elif step == 1:
            marks["first_root"] = perf_counter_ns()

    _train(cfg, 2, hook)


# ----------------------------------------------------------------------
# Serve
# ----------------------------------------------------------------------

def _replay(serve_wl, seed: int):
    from repro.serve.engine import serve_workload
    return serve_workload(serve_wl, seed=seed)


def _check_replay(serve_wl, seed: int, result) -> tuple[int, int, int]:
    """(requests, unserved, ledger errors) of one replay.

    Served exactly once: every id of the regenerated arrival trace
    appears once.  Ledger rows sum: per batch and stage the members'
    attributed shares add up to the batch wall, in both columns.
    """
    from repro.serve.arrivals import generate_arrivals

    expected = len(generate_arrivals(serve_wl.arrival, seed))
    seen = Counter(r.request_id for r in result.requests)
    once = sum(1 for i in range(expected) if seen.get(i, 0) == 1)
    errors = 0
    for b in result.batches:
        for stage, wall in b.walls.items():
            if sum(r.shares[stage] for r in b.requests) != wall:
                errors += 1
        for stage, wall in b.model_walls.items():
            if sum(r.model_shares[stage] for r in b.requests) != wall:
                errors += 1
    return expected, expected - once, errors


class ServeTotals:
    """Counts pooled over the replays of one phase."""

    def __init__(self) -> None:
        self.requests = self.unserved = self.ledger_errors = 0
        self.batches = self.tokens = 0
        self.routed = self.dropped = 0.0
        self.fingerprint: list = []

    def add(self, serve_wl, seed: int, result, keep_fingerprint: bool) -> int:
        tokens = sum(r.tokens for r in result.requests)
        requests, unserved, errors = _check_replay(serve_wl, seed, result)
        self.requests += requests
        self.unserved += unserved
        self.ledger_errors += errors
        self.batches += len(result.batches)
        self.tokens += tokens
        routed = serve_wl.num_layers * tokens
        self.routed += routed
        self.dropped += result.metric("dropped_fraction").value * routed
        if keep_fingerprint:
            self.fingerprint.append(
                [len(result.requests), len(result.batches),
                 float(result.metric("model_p99_ms").value).hex()])
        return tokens

    def result(self) -> dict:
        return {"fingerprint": self.fingerprint,
                "attempted": self.requests,
                "failed": self.unserved + self.ledger_errors,
                "unserved_requests": self.unserved,
                "batches": self.batches, "tokens": self.tokens,
                "routed_slots": self.routed, "dropped_slots": self.dropped}


def serve_audit(cfg: dict) -> dict:
    import workloads

    wl, plan = cfg["wl"], cfg["plan"]
    serve_wl = workloads.build_serve(wl, cfg["workload"])
    totals = ServeTotals()
    rss_warm = 0.0
    for i in range(plan["fingerprint_roots"]):
        if i == plan["warm_roots"]:
            rss_warm = _rss_mb("VmRSS")
        seed = workloads.sub_seed(cfg["seed"], i)
        totals.add(serve_wl, seed, _replay(serve_wl, seed), True)
    out = totals.result()
    out.update({"rss_growth_mb": _rss_mb("VmRSS") - rss_warm,
                "peak_rss_mb": _rss_mb("VmHWM")})
    return out


def serve_timed(cfg: dict) -> dict:
    """One ``serve_workload`` replay per block, a reference step between
    consecutive blocks.  Replay ``i`` of a run always uses sub-seed
    ``i``, so every phase of a seed serves the same traces."""
    import workloads

    wl, plan = cfg["wl"], cfg["plan"]
    traced = cfg["traced"]
    warm = plan["warm_roots"]
    n_blocks = plan["traced_blocks"] if traced else plan["blocks"]
    serve_wl = workloads.build_serve(wl, cfg["workload"])
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
    blocks = Blocks(wl, tracer)
    totals = ServeTotals()
    clock = perf_counter_ns
    pool = None
    # Segment j of a run continues the replay sequence where segment
    # j - 1 stopped, so a run serves one long list of distinct traces.
    first = cfg["segment"] * (warm + n_blocks)
    try:
        for i in range(warm + n_blocks):
            seed = workloads.sub_seed(cfg["seed"], first + i)
            keep = first + i < plan["fingerprint_roots"]
            if i < warm:
                totals.add(serve_wl, seed, _replay(serve_wl, seed), keep)
                continue
            if i == warm:
                if traced:
                    import layers
                    tracer.install(layers.TRACE_TABLE)
                    pool = _pool_counters()
                blocks.reference()
            t0 = clock()
            result = _replay(serve_wl, seed)
            t1 = clock()
            if tracer is not None:
                tracer.end_root(t1)
            tokens = totals.add(serve_wl, seed, result, keep)
            blocks.close(t1 - t0, tokens)
            blocks.reference()
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = blocks.result()
    out.update(totals.result())
    if traced:
        out["layers"] = _traced_layers(tracer, blocks, wl, True, pool,
                                       cfg.get("spans_out"))
    return out


def serve_probe(cfg: dict, marks: dict) -> None:
    import workloads
    from tracer import ROOT, Tracer
    from repro.serve.engine import serve_workload  # noqa: F401
    marks["imported"] = perf_counter_ns()

    serve_wl = workloads.build_serve(cfg["wl"], cfg["workload"])
    # First batch done = the second call of next_batch; the batcher is
    # wrapped as a root only, nothing else.
    tracer = Tracer()
    tracer.install([("repro.serve.batcher:BatchFormer.next_batch",
                     "serve.batcher.next_batch", ROOT)])
    try:
        _replay(serve_wl, workloads.sub_seed(cfg["seed"], 0))
        tracer.end_root()
    finally:
        tracer.uninstall()
    marks["built"] = tracer.roots[0][0]
    marks["first_root"] = tracer.roots[0][1]


# ----------------------------------------------------------------------
# Probe wrapper and dispatch
# ----------------------------------------------------------------------

def phase_probe(cfg: dict) -> dict:
    """Set-up as a user pays it: interpreter start -> imports -> model
    and data (or workload) built -> first root done.  ``spawn_ns`` is
    taken by ``run.py`` just before it starts this process
    (``perf_counter_ns`` is CLOCK_MONOTONIC, shared across processes)."""
    from reference import interpreter_reference_ns

    marks: dict = {}
    (serve_probe if cfg["wl"]["kind"] == "serve" else train_probe)(cfg, marks)
    interp = sorted(interpreter_reference_ns() for _ in range(5))[2]  # median
    spawn = cfg["spawn_ns"]
    return {"setup_ns": marks["first_root"] - spawn,
            "start_ns": T_PROCESS_START - spawn,
            "import_ns": marks["imported"] - T_PROCESS_START,
            "build_ns": marks["built"] - marks["imported"],
            "first_root_ns": marks["first_root"] - marks["built"],
            "interp_ref_ns": interp}


def phase_audit(cfg: dict) -> dict:
    return (serve_audit if cfg["wl"]["kind"] == "serve" else train_audit)(cfg)


def phase_timed(cfg: dict) -> dict:
    return (serve_timed if cfg["wl"]["kind"] == "serve" else train_timed)(cfg)


PHASES = {"gate": phase_gate, "probe": phase_probe, "audit": phase_audit,
          "timed": phase_timed}


def main(argv: list[str]) -> int:
    phase, cfg = argv[1], json.loads(argv[2])
    if cfg.get("cpu") is not None:
        os.sched_setaffinity(0, {cfg["cpu"]})
    sys.path[:0] = [str(HERE), str(REPO_ROOT / "src")]
    try:
        result = PHASES[phase](cfg)
    except GateError as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
