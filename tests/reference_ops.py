"""Taped reference ops the fused kernels are checked against."""

import numpy as np

from repro.autograd.tensor import Tensor

_GELU_C = float(np.sqrt(2.0 / np.pi))


def unblocked_act_forward(h, activation):
    """``(a, tanh cache)``: the whole-array activation that the blocked
    :func:`repro.moe.ffn.act_forward` replaced, pass for pass."""
    if activation == "relu":
        return np.maximum(h, 0.0), None
    inner = h * h
    inner *= h
    inner *= 0.044715
    inner += h
    inner *= _GELU_C
    t = np.tanh(inner)
    a = t + 1.0
    a *= h
    a *= 0.5
    return a, t


def unblocked_act_grad(h, cache, activation):
    """d(activation)/dh from ``h`` and the tanh cache, as one
    whole-array expression (ReLU: the mask ``h > 0``)."""
    if activation == "relu":
        return h > 0.0
    t = cache
    d_inner = h * h
    d_inner *= 3 * 0.044715
    d_inner += 1.0
    d_inner *= _GELU_C
    d = t * t
    np.subtract(1.0, d, out=d)
    d *= d_inner
    d *= h
    d += 1.0
    d += t
    d *= 0.5
    return d


def _activation(x: Tensor, activation: str) -> Tensor:
    """The activation as its own tape node: the elementwise step of the
    composition ``act(x @ w1 + b1) @ w2 + b2`` that the fused FFN ops
    replace bit for bit."""
    out_data, t = unblocked_act_forward(x.data, activation)

    def backward(grad):
        x._accumulate(grad * unblocked_act_grad(x.data, t, activation))
    return Tensor.from_op(out_data, (x,), backward, activation)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GELU (see :func:`_activation`)."""
    return _activation(x, "gelu")


def relu(x: Tensor) -> Tensor:
    """ReLU (see :func:`_activation`)."""
    return _activation(x, "relu")


def saving_expert_kernels(x, w1, w2, activation: str, rows=None):
    """The fused expert FFN kernels as they were when the forward saved
    ``(h, a, cache)``: the same ragged GEMMs, the whole-array activation
    kept for the ``w2`` gradient, the gradient w.r.t. it a fresh array
    multiplied by the derivative rebuilt from ``(h, cache)``, and
    zero-filled weight gradients.  Returns ``(y, backward)``;
    ``backward(grad_y, weight_grads=True)`` gives ``(grad_x, grad_w1,
    grad_w2)`` and may run any number of times.  The oracle of the
    kernels that save ``(a, act'(h))`` and write over ``a``."""
    dtype = np.result_type(x, w1, w2)
    x, w1, w2 = (arr.astype(dtype, copy=False) for arr in (x, w1, w2))
    e_count, cap = x.shape[:2]
    counts = [cap] * e_count if rows is None else np.asarray(rows).tolist()
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(int).tolist()
    occupied = [(e, slice(n), slice(starts[e], starts[e] + n))
                for e, n in enumerate(counts) if n]
    h = np.empty((starts[-1], w1.shape[-1]), dtype=dtype)
    for e, rs, hs in occupied:
        x[e, rs].dot(w1[e], out=h[hs])
    a, cache = unblocked_act_forward(h, activation)
    y = np.zeros((*x.shape[:2], w2.shape[-1]), dtype=dtype)
    for e, rs, hs in occupied:
        a[hs].dot(w2[e], out=y[e, rs])

    def backward(grad_y, weight_grads=True):
        gdt = np.result_type(dtype, grad_y)
        xs, w1s, w2s, gys = (arr.astype(gdt, copy=False)
                             for arr in (x, w1, w2, grad_y))
        grad_h = np.empty(h.shape, dtype=gdt)
        grad_w2 = np.zeros(w2s.shape, dtype=gdt) if weight_grads else None
        for e, rs, hs in occupied:
            gys[e, rs].dot(w2s[e].T, out=grad_h[hs])
            if weight_grads:
                a[hs].T.dot(gys[e, rs], out=grad_w2[e])
        grad_h *= unblocked_act_grad(h, cache, activation)
        grad_x = np.zeros(xs.shape, dtype=gdt)
        grad_w1 = np.zeros(w1s.shape, dtype=gdt) if weight_grads else None
        for e, rs, hs in occupied:
            grad_h[hs].dot(w1s[e].T, out=grad_x[e, rs])
            if weight_grads:
                xs[e, rs].T.dot(grad_h[hs], out=grad_w1[e])
        return grad_x, grad_w1, grad_w2
    return y, backward


def saving_expert_ffn(dispatched: Tensor, w1: Tensor, w2: Tensor,
                      activation: str = "gelu", rows=None) -> Tensor:
    """:func:`repro.autograd.moe_ops.expert_ffn` over
    :func:`saving_expert_kernels`: a drop-in for the layer's op."""
    y, kernels_backward = saving_expert_kernels(
        dispatched.data, w1.data, w2.data, activation, rows)

    def backward(grad):
        weight_grads = w1.requires_grad or w2.requires_grad
        gx, gw1, gw2 = kernels_backward(grad, weight_grads)
        dispatched._accumulate(gx)
        if weight_grads:
            w1._accumulate(gw1)
            w2._accumulate(gw2)
    return Tensor.from_op(y, (dispatched, w1, w2), backward, "expert_ffn",
                          (activation, rows))


def saving_ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
               activation: str) -> Tensor:
    """The dense FFN op as it was when it saved ``(h, a, t)``: the oracle
    of :func:`repro.autograd.functional.ffn`, which saves ``(a,
    act'(h))`` and writes over ``a``."""
    h = x.data @ w1.data
    h += b1.data
    a, t = unblocked_act_forward(h, activation)
    y = a @ w2.data
    y += b2.data

    def backward(grad):
        b2._accumulate(grad)
        if w2.requires_grad:
            w2._accumulate(np.swapaxes(a, -1, -2) @ grad)
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        ga = grad @ np.swapaxes(w2.data, -1, -2)
        ga *= unblocked_act_grad(h, t, activation)
        b1._accumulate(ga)
        if w1.requires_grad:
            w1._accumulate(np.swapaxes(x.data, -1, -2) @ ga)
        if x.requires_grad:
            x._accumulate(ga @ np.swapaxes(w1.data, -1, -2))
    return Tensor.from_op(y, (x, w1, b1, w2, b2), backward, "ffn",
                          activation)


def take_along(x: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """Differentiable ``np.take_along_axis``."""
    indices = np.asarray(indices)
    out_data = np.take_along_axis(x.data, indices, axis=axis)

    def backward(grad):
        # put_along_axis overwrites on duplicate indices, so scatter-add
        # through explicit fancy indexing instead.
        gx = np.zeros_like(x.data)
        idx = [np.arange(s).reshape([s if d == i else 1
                                     for d in range(x.ndim)])
               for i, s in enumerate(x.data.shape)]
        idx[axis] = indices
        np.add.at(gx, tuple(np.broadcast_arrays(*idx)), grad)
        x._accumulate(gx)
    return Tensor.from_op(out_data, (x,), backward, "take_along")


def mean(x: Tensor, axis: int) -> Tensor:
    """A taped mean: the sum, then a multiply by ``1 / count`` in
    ``x``'s dtype."""
    count = x.data.shape[axis]
    return x.sum(axis=axis) * Tensor(1.0 / count, dtype=x.data.dtype)


def composed_gates(probs: Tensor, routing) -> Tensor:
    """``Routing.gates`` composed from taped ops (gather, transpose and,
    for k > 1, sum / add / div): the chain ``nn.moe``'s gates op
    replaces bit for bit."""
    selected = take_along(probs, routing.order, axis=1).T
    if routing.order.shape[1] > 1:
        selected = selected / (selected.sum(axis=0, keepdims=True)
                               + Tensor(1e-12, dtype=probs.data.dtype))
    return selected


def composed_l_aux(probs: Tensor, routing) -> Tensor:
    """``Routing.l_aux`` composed from taped ops: the chain ``nn.moe``'s
    ``l_aux`` op replaces bit for bit."""
    dtype = probs.data.dtype
    t, e = probs.shape
    counts = np.bincount(routing.crit.idxs[0], minlength=e)
    routed_frac = Tensor(counts / t, dtype=dtype)
    return ((mean(probs, axis=0) * routed_frac).sum()
            * Tensor(e, dtype=dtype))


def compute_locations_reference(idxs: np.ndarray, num_experts: int,
                                priority: np.ndarray | None = None
                                ) -> np.ndarray:
    """The pre-rewrite :func:`repro.moe.gating.compute_locations`.

    Materializes a ``(T, E)`` one-hot and a full cumsum per top-k slot
    in a Python loop: the independent oracle ``tests/test_gating.py``
    checks the rewrite against.
    """
    k, t = idxs.shape
    if priority is not None and priority.shape != (t,):
        raise ValueError(
            f"priority must have shape ({t},), got {priority.shape}")
    order = (np.argsort(-priority, kind="stable") if priority is not None
             else np.arange(t))

    locations = np.empty((k, t), dtype=np.int64)
    counts = np.zeros(num_experts, dtype=np.int64)
    for slot in range(k):
        assigned = idxs[slot, order]                      # (T,) in priority order
        one_hot = np.zeros((t, num_experts), dtype=np.int64)
        one_hot[np.arange(t), assigned] = 1
        pos_in_order = one_hot.cumsum(axis=0) - 1         # 0-based per expert
        slot_locations = (pos_in_order[np.arange(t), assigned]
                          + counts[assigned])
        locations[slot, order] = slot_locations
        counts += one_hot.sum(axis=0)
    return locations


def expert_weights_one_shot(rng: np.random.Generator, model_dim: int,
                            hidden_dim: int, num_experts: int,
                            dtype) -> tuple[np.ndarray, np.ndarray]:
    """The pre-rewrite ``MoE.__init__`` expert draw: each of ``w1`` and
    ``w2`` as one float64 ``rng.normal`` over ``(E, ., .)``, cast to
    ``dtype``.  Leaves ``rng`` where the layer's gate draw starts."""
    s1 = (2.0 / model_dim) ** 0.5
    s2 = (2.0 / hidden_dim) ** 0.5
    w1 = rng.normal(0.0, s1, (num_experts, model_dim, hidden_dim))
    w2 = rng.normal(0.0, s2, (num_experts, hidden_dim, model_dim))
    return w1.astype(dtype), w2.astype(dtype)


def generate_arrivals_per_draw(spec, seed: int) -> list:
    """The pre-batching :func:`repro.serve.arrivals.generate_arrivals`:
    one scalar ``exponential`` per gap (the crossing one included), one
    ``random`` per diurnal candidate and two ``integers`` per request
    (tokens, then the retired payload seed)."""
    import math

    from repro.serve.arrivals import NS, Request

    rng = np.random.default_rng(seed)

    def poisson_times(rate, start, end):
        times, t = [], start
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= end:
                return times
            times.append(t)

    if spec.kind == "poisson":
        seconds = poisson_times(spec.rate, 0.0, spec.horizon_s)
    elif spec.kind == "bursty":
        seconds, t, on = [], 0.0, False
        while t < spec.horizon_s:
            dwell = rng.exponential(spec.on_s if on else spec.off_s)
            end = min(t + dwell, spec.horizon_s)
            rate = spec.burst_rate if on else spec.rate
            seconds.extend(poisson_times(rate, t, end))
            t, on = end, not on
    else:
        seconds = []
        for t in poisson_times(spec.peak_rate, 0.0, spec.horizon_s):
            phase = 2.0 * math.pi * t / spec.period_s
            rate = (spec.rate + (spec.peak_rate - spec.rate)
                    * 0.5 * (1.0 - math.cos(phase)))
            if rng.random() < rate / spec.peak_rate:
                seconds.append(t)
    requests = []
    for i, t in enumerate(seconds):
        tokens = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
        rng.integers(0, 2**31 - 1)
        requests.append(Request(request_id=i, arrival_ns=round(t * NS),
                                tokens=tokens))
    return requests


def attribute_shares_reference(wall_ns: int, token_counts) -> list[int]:
    """The two-list :func:`repro.serve.ledger.attribute_shares`: floor
    shares, then remainders, then a full sort by ``(-remainder, index)``
    whether or not a nanosecond is left over."""
    if wall_ns < 0:
        raise ValueError(f"wall_ns must be >= 0, got {wall_ns}")
    if not token_counts:
        raise ValueError("token_counts must be non-empty")
    if any(t < 1 for t in token_counts):
        raise ValueError("every member must carry >= 1 token")
    total = sum(token_counts)
    shares = [wall_ns * t // total for t in token_counts]
    remainders = [(wall_ns * t) % total for t in token_counts]
    leftover = wall_ns - sum(shares)
    order = sorted(range(len(token_counts)),
                   key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        shares[i] += 1
    return shares


def build_batch_ledger_reference(batch, walls, model_walls,
                                 queue_depth: int):
    """The per-stage :func:`repro.serve.ledger.build_batch_ledger`: each
    wall read through ``int()`` wherever it is used, one share list per
    stage indexed per member, and each request's dicts filled key by
    key."""
    from repro.serve.ledger import EXEC_STAGES, BatchLedger, RequestLedger

    for name, mapping in (("walls", walls),
                          ("model_walls", model_walls)):
        for s in EXEC_STAGES:
            if int(mapping[s]) < 0:
                raise ValueError(f"{name}[{s!r}] must be >= 0")
    token_counts = [r.tokens for r in batch.requests]
    shares_by_stage = {
        s: attribute_shares_reference(int(walls[s]), token_counts)
        for s in EXEC_STAGES}
    model_shares_by_stage = {
        s: attribute_shares_reference(int(model_walls[s]), token_counts)
        for s in EXEC_STAGES}
    ledgers = []
    for i, r in enumerate(batch.requests):
        queue = max(0, batch.free_ns - r.arrival_ns)
        batch_wait = (batch.close_ns - r.arrival_ns) - queue
        base = {"queue": queue, "batch_wait": batch_wait}
        spans = dict(base)
        model_spans = dict(base)
        for s in EXEC_STAGES:
            spans[s] = int(walls[s])
            model_spans[s] = int(model_walls[s])
        ledgers.append(RequestLedger(
            request_id=r.request_id, batch_id=batch.batch_id,
            tokens=r.tokens, arrival_ns=r.arrival_ns,
            close_ns=batch.close_ns,
            spans=spans, model_spans=model_spans,
            shares={s: shares_by_stage[s][i] for s in EXEC_STAGES},
            model_shares={s: model_shares_by_stage[s][i]
                          for s in EXEC_STAGES}))
    return BatchLedger(
        batch_id=batch.batch_id, close_ns=batch.close_ns,
        queue_depth=queue_depth,
        walls={s: int(walls[s]) for s in EXEC_STAGES},
        model_walls={s: int(model_walls[s]) for s in EXEC_STAGES},
        requests=tuple(ledgers))


# The four per-algorithm latency formulas that
# repro.collectives.schedule.a2a_time replaced, as they were, except
# 2DH's phase-3 copy: the mover's stride_memcpy(row=nnodes, col=m)
# reads S/n runs, so it is priced at `chunk`, not `chunk * m`.

def _ll128(link, protocol, model):
    from repro.cluster.topology import LinkSpec
    from repro.collectives.schedule import Protocol

    if protocol is Protocol.SIMPLE:
        return link
    return LinkSpec(
        bandwidth=link.bandwidth * model.ll128_bandwidth_factor,
        latency=link.latency * 0.5,
        message_overhead=link.message_overhead * model.ll128_overhead_factor,
    )


def _cross_rail(link, model):
    from repro.cluster.topology import LinkSpec

    return LinkSpec(
        bandwidth=link.bandwidth * model.cross_rail_bandwidth,
        latency=link.latency,
        message_overhead=link.message_overhead * model.cross_rail_overhead,
    )


def linear_a2a_time(topo, total_bytes, protocol, model):
    n = topo.num_gpus
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    if n == 1 or total_bytes == 0:
        return 0.0
    chunk = total_bytes / n
    m = topo.local_size
    intra = _ll128(topo.intra_link, protocol, model)
    inter = _ll128(topo.inter_link, protocol, model)

    intra_time = intra.stream_time(chunk, m - 1)
    inter_peers = n - m
    if inter_peers <= 0:
        return intra_time
    if topo.rail_optimized:
        on_rail = inter_peers // m
        off_rail = inter_peers - on_rail
        inter_time = (inter.stream_time(chunk, on_rail)
                      + _cross_rail(inter, model).stream_time(chunk,
                                                              off_rail))
    else:
        inter_time = inter.stream_time(chunk, inter_peers)
    return max(intra_time, inter_time)


def naive_local_agg_a2a_time(topo, total_bytes, protocol, model):
    from repro.cluster.linkmodel import stride_memcpy_time

    n = topo.num_gpus
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    if n == 1 or total_bytes == 0:
        return 0.0
    m = topo.local_size
    nnodes = topo.num_nodes
    chunk = total_bytes / n
    intra = _ll128(topo.intra_link, protocol, model)
    inter = _ll128(topo.inter_link, protocol, model)

    rounds = max(1, nnodes)
    per_round = intra.stream_time(chunk, m - 1)
    gather_penalty = stride_memcpy_time(topo.gpu, total_bytes, chunk)
    phase1 = rounds * per_round + gather_penalty

    inter_msg = m * chunk
    phase2 = inter.stream_time(inter_msg, nnodes - 1)
    return phase1 + phase2


def twodh_a2a_time(topo, total_bytes, protocol, impl, model):
    from repro.cluster.linkmodel import stride_memcpy_time
    from repro.collectives.schedule import Impl

    n = topo.num_gpus
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    if n == 1 or total_bytes == 0:
        return 0.0
    m = topo.local_size
    nnodes = topo.num_nodes
    chunk = total_bytes / n
    intra = _ll128(topo.intra_link, protocol, model)
    inter = _ll128(topo.inter_link, protocol, model)

    copy1 = stride_memcpy_time(topo.gpu, total_bytes, chunk)
    phase2 = intra.stream_time(total_bytes / m, m - 1) if m > 1 else 0.0
    copy3 = stride_memcpy_time(topo.gpu, total_bytes, chunk)  # was chunk * m
    phase4 = (inter.stream_time(m * chunk, nnodes - 1)
              if nnodes > 1 else 0.0)

    total = copy1 + phase2 + copy3 + phase4
    if impl is Impl.NCCL:
        total += 3 * model.phase_barrier
    return total


def threedh_a2a_time(topo, total_bytes, nodes_per_group, protocol, impl,
                     model):
    from repro.cluster.linkmodel import stride_memcpy_time
    from repro.collectives.schedule import Impl

    n = topo.num_gpus
    if total_bytes < 0:
        raise ValueError(f"total_bytes must be >= 0, got {total_bytes}")
    if nodes_per_group < 1:
        raise ValueError(
            f"nodes_per_group must be >= 1, got {nodes_per_group}")
    if n == 1 or total_bytes == 0:
        return 0.0
    m = topo.local_size
    nnodes = topo.num_nodes
    groups = max(1, nnodes // nodes_per_group)
    g = min(nodes_per_group, nnodes)
    chunk = total_bytes / n
    intra = _ll128(topo.intra_link, protocol, model)
    inter = _ll128(topo.inter_link, protocol, model)

    copy1 = stride_memcpy_time(topo.gpu, total_bytes, chunk)
    level1 = intra.stream_time(total_bytes / m, m - 1) if m > 1 else 0.0
    copy2 = stride_memcpy_time(topo.gpu, total_bytes, chunk * m)
    level2 = (inter.stream_time(m * chunk, g - 1) if g > 1 else 0.0)
    copy3 = stride_memcpy_time(topo.gpu, total_bytes, chunk * m * g)
    level3 = (inter.stream_time(m * g * chunk, groups - 1)
              if groups > 1 else 0.0)

    total = copy1 + level1 + copy2 + level2 + copy3 + level3
    if impl is Impl.NCCL:
        total += 5 * model.phase_barrier
    return total
