"""The trace table and the per-layer metrics computed from its spans.

Each entry wraps an attribute *in the namespace that consumes it*, so a
call is seen exactly where the program makes it.  ``→`` notes which
end-to-end metric a layer metric should move, and on which workload;
BENCHMARK.json lists every metric name, ``spec.json`` the workloads on
which each is null (absent, not zero).
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import ATTRS, COUNT, NAME, ROOT, ROOT_IDX, SPAN, Tracer


# -- attrs callbacks: cheap, shape-only -------------------------------

def _routing_attrs(args, kwargs, stats):
    slots = stats.num_tokens * stats.top_k
    return (stats.num_tokens, slots, round(stats.dropped_fraction * slots),
            stats.num_experts * stats.capacity)


def _ffn_attrs(gemms: int, count_rows: bool):
    """(rows, closed-form flops) of the fused expert FFN: ``gemms``
    batched GEMMs of ``2 * E*cap * M * V`` flops each."""
    def attrs(args, kwargs, result):
        x, w1 = args[0], args[1]
        e, c, m = x.shape
        return (e * c if count_rows else 0,
                gemms * 2 * e * c * m * w1.shape[-1])
    return attrs


def _scatter_attrs(args, kwargs, result):
    """Computed bytes of one sparse encode/decode: the ``(E*cap, M)``
    buffer written once plus every routed slot read and written (slots
    counted before capacity drops) — from tensor sizes, not measured."""
    data, crit = args[0], args[-1]
    m = data.shape[-1]
    return data.itemsize * m * (crit.num_experts * crit.capacity
                                + 2 * crit.idxs.size)


#: (target, span name, kind[, attrs]).  Roots: ``BatchFormer.next_batch``
#: on serve; the step hook (worker.py) on train.
TRACE_TABLE = [
    ("repro.nn.models:MoEClassifier.forward", "nn.models.forward", SPAN),
    ("repro.nn.moe:MoE.forward", "nn.moe.forward", SPAN),
    ("repro.nn.moe:MoE.__init__", "nn.moe.init", SPAN),
    ("repro.nn.moe:compute_locations", "moe.gating.compute_locations", SPAN),
    ("repro.nn.moe:resolve_capacity", "moe.capacity.resolve_capacity", SPAN),
    ("repro.moe.capacity:needed_capacity_factor",
     "moe.capacity.needed_capacity_factor", SPAN),
    ("repro.nn.moe:routing_stats", "moe.metrics.routing_stats", SPAN,
     _routing_attrs),
    ("repro.nn.moe:moe_dispatch", "autograd.moe_ops.moe_dispatch", SPAN),
    ("repro.nn.moe:moe_combine", "autograd.moe_ops.moe_combine", SPAN),
    ("repro.nn.moe:expert_ffn", "autograd.moe_ops.expert_ffn", SPAN),
    ("repro.autograd.moe_ops:fast_encode", "moe.encode.fast_encode", SPAN,
     _scatter_attrs),
    ("repro.autograd.moe_ops:fast_encode_backward",
     "moe.encode.fast_encode_backward", SPAN, _scatter_attrs),
    ("repro.autograd.moe_ops:fast_decode", "moe.encode.fast_decode", SPAN,
     _scatter_attrs),
    ("repro.autograd.moe_ops:fast_decode_backward",
     "moe.encode.fast_decode_backward", SPAN, _scatter_attrs),
    ("repro.autograd.moe_ops:ffn_forward_arrays",
     "runtime.executor.ffn_forward_arrays", SPAN, _ffn_attrs(2, True)),
    ("repro.autograd.moe_ops:ffn_backward_arrays",
     "runtime.executor.ffn_backward_arrays", SPAN, _ffn_attrs(4, False)),
    ("repro.autograd.tensor:Tensor.backward", "autograd.tensor.backward",
     SPAN),
    ("repro.train.trainer:cross_entropy", "autograd.functional.cross_entropy",
     SPAN),
    ("repro.train.trainer:clip_grad_norm", "autograd.optim.clip_grad_norm",
     SPAN),
    ("repro.autograd.optim:Adam.step", "autograd.optim.adam_step", SPAN),
    ("repro.autograd.optim:Adam.zero_grad", "autograd.optim.adam_zero_grad",
     SPAN),
    ("repro.serve.batcher:BatchFormer.next_batch", "serve.batcher.next_batch",
     ROOT),
    ("repro.serve.engine:price_stages", "serve.engine.price_stages", SPAN),
    ("repro.serve.engine:build_batch_ledger", "serve.ledger.build_batch_ledger",
     SPAN),
    ("repro.serve.engine:generate_arrivals", "serve.arrivals.generate_arrivals",
     SPAN),
    ("repro.obs:Observer.record_routing", "obs.record_routing", SPAN),
    ("repro.obs.routing:RoutingRecorder.observe_batch",
     "obs.routing.observe_batch", SPAN),
    ("repro.autograd.tensor:Tensor.from_op", "autograd.tensor.from_op", COUNT),
    ("repro.obs:Observer.count", "obs.count", COUNT),
    ("repro.obs:Observer.gauge", "obs.gauge", COUNT),
    ("repro.obs.registry:Histogram.observe", "obs.histogram_observe", COUNT),
]

#: metric -> span names whose *self* time (inside roots) it sums.
SELF_MS = {
    # → tokens_per_s @ train_small, serve_steady; <= 5 % of root @ wide.
    "nn.models.forward_self_ms": ["nn.models.forward"],
    "nn.moe.forward_self_ms": ["nn.moe.forward"],
    "moe.gating.locations_ms": ["moe.gating.compute_locations"],
    "moe.capacity.resolve_ms": ["moe.capacity.resolve_capacity",
                                "moe.capacity.needed_capacity_factor"],
    "moe.metrics.routing_stats_ms": ["moe.metrics.routing_stats"],
    "obs.record_ms": ["obs.record_routing", "obs.routing.observe_batch"],
    # → tokens_per_s @ wide.
    "moe.encode.dispatch_fwd_ms": ["autograd.moe_ops.moe_dispatch",
                                   "moe.encode.fast_encode"],
    "moe.encode.dispatch_bwd_ms": ["moe.encode.fast_encode_backward"],
    "moe.encode.combine_fwd_ms": ["autograd.moe_ops.moe_combine",
                                  "moe.encode.fast_decode"],
    "moe.encode.combine_bwd_ms": ["moe.encode.fast_decode_backward"],
    # → tokens_per_s @ train_wide, serve_wide (>= 40 % of root);
    # <= 20 % of root @ small.
    "runtime.executor.ffn_fwd_ms": ["autograd.moe_ops.expert_ffn",
                                    "runtime.executor.ffn_forward_arrays"],
    "runtime.executor.ffn_bwd_ms": ["runtime.executor.ffn_backward_arrays"],
    # → tokens_per_s @ train_*.
    "autograd.tensor.backward_self_ms": ["autograd.tensor.backward"],
    "autograd.functional.loss_ms": ["autograd.functional.cross_entropy"],
    "autograd.optim.adam_ms": ["autograd.optim.adam_step",
                               "autograd.optim.adam_zero_grad"],
    "autograd.optim.clip_ms": ["autograd.optim.clip_grad_norm"],
    # → tokens_per_s @ serve_steady.
    "serve.batcher.next_batch_ms": ["serve.batcher.next_batch"],
    "serve.engine.price_ms": ["serve.engine.price_stages"],
    "serve.ledger.build_ms": ["serve.ledger.build_batch_ledger"],
}

#: metric -> span names summed per *replay*, outside roots (serve only).
OUTSIDE_MS = {
    "serve.arrivals.generate_ms": ["serve.arrivals.generate_arrivals"],
    # also → setup_s @ serve_wide.
    "serve.engine.model_build_ms": ["nn.moe.init"],
}

OBS_CALLS = ["obs.count", "obs.gauge", "obs.histogram_observe",
             "obs.record_routing", "obs.routing.observe_batch"]


def layer_metrics(tr: Tracer, span_end: list[int], root_end: list[int],
                  replay_walls_ns: list[int], scales: list[float]) -> dict:
    """Per-layer metrics of one traced phase.

    ``span_end[b]`` / ``root_end[b]`` are the span and root counts at
    the end of block ``b``; ``scales[b]`` turns that block's raw ns into
    reference-normalised ns (``ref_nominal / mean(ref_b, ref_b+1)``).
    ``replay_walls_ns`` (serve) are the block walls, for the
    outside-roots remainder.  Times are means per root (or per replay)
    in reference-normalised ms; a metric whose spans never ran reads
    ``None``.
    """
    own = tr.self_times()
    inside: dict[str, float] = defaultdict(float)
    outside: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    routing = [0, 0, 0, 0]
    rows = flops = nbytes = 0
    block = 0
    for i, s in enumerate(tr.spans):
        while i >= span_end[block]:
            block += 1
        name = s[NAME]
        calls[name] += 1
        if s[ROOT_IDX] < 0:
            outside[name] += own[i] * scales[block]
            continue
        inside[name] += own[i] * scales[block]
        attrs = s[ATTRS]
        if attrs is None:
            continue
        if name == "moe.metrics.routing_stats":
            for j, v in enumerate(attrs):
                routing[j] += v
        elif name.startswith("runtime.executor."):
            rows += attrs[0]
            flops += attrs[1]
        else:
            nbytes += attrs
    n_roots = len(tr.roots)
    root_ns = 0.0
    block = 0
    for r, (start, end) in enumerate(tr.roots):
        while r >= root_end[block]:
            block += 1
        root_ns += (end - start) * scales[block]
    attributed = sum(inside.values())

    def per_root_ms(names):
        if not any(calls[n] for n in names):
            return None
        return sum(inside[n] for n in names) / n_roots / 1e6

    out = {name: per_root_ms(names) for name, names in SELF_MS.items()}
    n_replays = len(replay_walls_ns)
    for name, names in OUTSIDE_MS.items():
        out[name] = (sum(outside[n] for n in names) / n_replays / 1e6
                     if n_replays and any(calls[n] for n in names) else None)
    out["serve.engine.replay_outside_ms"] = (
        (sum(w * s for w, s in zip(replay_walls_ns, scales)) - root_ns)
        / n_replays / 1e6 if n_replays else None)
    tokens, slots, dropped, routed_rows = routing
    out.update({
        "trace.roots": n_roots,
        "trace.root_ms": root_ns / n_roots / 1e6,
        # Root wall in no span: snapshot(), batch sampling, per-request
        # default_rng, loop bookkeeping.
        "trace.unattributed_ms": (root_ns - attributed) / n_roots / 1e6,
        "obs.calls_per_root": (sum(tr.counts.get(n, 0) + calls[n]
                                   for n in OBS_CALLS) / n_roots),
        "autograd.tensor.tape_nodes_per_root":
            tr.counts.get("autograd.tensor.from_op", 0) / n_roots,
        "moe.encode.bytes_per_root": nbytes / n_roots,
        "runtime.executor.rows_per_root": rows / n_roots,
        "runtime.executor.flops_per_root": flops / n_roots,
        "runtime.executor.useful_row_fraction":
            (slots - dropped) / routed_rows if routed_rows else None,
        "nn.moe.tokens_per_root": tokens / n_roots,
        "nn.moe.routed_slots_per_root": slots / n_roots,
        "nn.moe.dropped_slots_per_root": dropped / n_roots,
    })
    return out
