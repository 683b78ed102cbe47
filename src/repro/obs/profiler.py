"""Deterministic op-level profiler for the functional substrate.

The measured half of the measured-vs-modeled loop (see
:mod:`repro.obs.calibrate` for the other half).  Ops carry no
instrumentation: :meth:`repro.autograd.tensor.Tensor.from_op` is the
one forward hook, handing every op output to :meth:`Profiler.tape_op`,
which records, per backward-graph op:

* **closed-form FLOPs and bytes read/written** — analytic counts
  looked up by op name in :data:`OP_COSTS`, built from the cost helpers
  at the bottom of this module, the same formulas the reference tests
  assert against (``2*m*n*k`` for GEMMs, ``O(T*k*M)`` for the sparse
  encode/decode versus the dense ``O(T*E*C*M)`` path);
* **arithmetic intensity** — FLOPs per byte moved, derived;
* **wall time** — one cursor: a forward record runs from the cursor
  to the moment the hook is entered, and the cursor then moves to the
  moment the hook returns, so the profiler's own table arithmetic sits
  outside every wall while the Python between two ops of a stage
  (top-k, capacity resolution) is attributed to the next op.
  ``profiling()`` entry, the entry of each :func:`repro.obs.stage`
  and the end of each backward record (timed around the tape node's
  ``_backward`` closure) also move the cursor.

Peak memory is measured, not modeled: :func:`traced_peak` runs one
call under ``tracemalloc``, which sees every array and Python object
an op makes, its saved intermediates included.  Run it over an
unprofiled pass — tracing slows every allocation, so it would inflate
the walls recorded here.

Like the :class:`~repro.obs.Observer`, the profiler is **off by
default and zero-cost when off**: its slot lives in :mod:`repro.obs`
(``get_profiler()``), so the hook does one module-global
``is None`` check and nothing on the hot path imports this module.
Enable around a region::

    from repro.obs import profiler

    with profiler.profiling() as prof:
        loss = model(...)[0]
        loss.backward()
    print(prof.render())
    summary = prof.summary()          # JSON-serializable

FLOP conventions (documented so the closed-form counts are
reproducible): one add/sub/mul/compare = 1 FLOP, one divide = 4 FLOPs,
one transcendental (exp/log/tanh/sqrt) = 6 FLOPs.  Byte counts are
itemsize-aware: every cost helper takes an ``itemsize`` argument
(:data:`OP_COSTS` passes the actual array itemsize) defaulting to
the active substrate dtype's — 4 under the float32 default, 8 under
float64 (:func:`repro.core.substrate.default_itemsize`).
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.substrate import default_itemsize
from repro.obs import CAT_PROF, set_profiler
from repro.obs.trace import TraceRecorder

__all__ = [
    "default_itemsize",
    "PHASE_FORWARD",
    "PHASE_BACKWARD",
    "STAGE_OTHER",
    "OpCost",
    "ZERO_COST",
    "OpRecord",
    "Profiler",
    "profiling",
    "traced_peak",
    "OP_COSTS",
    "matmul_cost",
    "elementwise_cost",
    "reduction_cost",
    "routes_of",
    "sparse_encode_cost",
    "sparse_encode_backward_cost",
    "sparse_decode_cost",
    "sparse_decode_backward_cost",
]

PHASE_FORWARD = "forward"
PHASE_BACKWARD = "backward"

#: Stage attributed to ops outside any MoE stage context.
STAGE_OTHER = "other"

#: Records kept per profiler; later ones are counted in
#: ``records_dropped``.
MAX_RECORDS = 200_000


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OpCost:
    """Closed-form cost of one op: FLOPs plus bytes moved."""

    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte moved (0 when no bytes move)."""
        total = self.bytes_total
        return self.flops / total if total else 0.0

    def __add__(self, other: "OpCost") -> "OpCost":
        """Component-wise sum — fused ops compose their stage costs."""
        if not isinstance(other, OpCost):
            return NotImplemented
        return OpCost(flops=self.flops + other.flops,
                      bytes_read=self.bytes_read + other.bytes_read,
                      bytes_written=self.bytes_written + other.bytes_written)


ZERO_COST = OpCost()


@dataclass(frozen=True)
class OpRecord:
    """One profiled op execution (forward or backward)."""

    seq: int
    name: str
    phase: str        # PHASE_FORWARD | PHASE_BACKWARD
    stage: str        # MoE stage, or STAGE_OTHER
    ts: float         # seconds on the profiler clock
    wall: float       # measured duration in seconds
    cost: OpCost


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------

class Profiler:
    """Op-level recorder: per-op costs and wall times.

    ``clock`` defaults to :func:`time.perf_counter`, re-based to the
    profiler's creation so timelines start near zero.
    """

    def __init__(self,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._t0 = clock()
        self._cursor = 0.0
        self.records: list[OpRecord] = []
        self.records_dropped = 0
        #: The open :func:`repro.obs.stage` contexts, innermost last.
        self.stages: list[str] = []
        self._phase = PHASE_FORWARD
        self._seq = 0

    # -- clock ---------------------------------------------------------

    def clock(self) -> float:
        """Seconds on the profiler timeline (0 at creation)."""
        return self._clock() - self._t0

    def mark(self) -> None:
        """Move the cursor — where the next forward record starts — to
        now."""
        self._cursor = self.clock()

    # -- phase / stage -------------------------------------------------

    @property
    def current_stage(self) -> str:
        return self.stages[-1] if self.stages else STAGE_OTHER

    @contextlib.contextmanager
    def backward_pass(self):
        """Attribute ops run inside the context to the backward phase."""
        previous = self._phase
        self._phase = PHASE_BACKWARD
        try:
            yield self
        finally:
            self._phase = previous

    # -- recording -----------------------------------------------------

    def _append(self, name: str, phase: str, stage: str, ts: float,
                wall: float, cost: OpCost) -> None:
        if len(self.records) >= MAX_RECORDS:
            self.records_dropped += 1
            return
        self.records.append(OpRecord(
            seq=self._seq, name=name, phase=phase, stage=stage, ts=ts,
            wall=wall, cost=cost))
        self._seq += 1

    def tape_op(self, out, name: str, parents, ctx) -> None:
        """The forward hook: record the op that produced tensor ``out``.

        Wall time runs from the cursor to hook entry; the costs come
        from ``OP_COSTS[name]`` (an unknown name is a ``KeyError``).
        Stashes ``(name, stage, backward_cost)`` on the tensor so the
        backward pass can attribute its cost without re-deriving
        shapes.  The cursor moves to hook exit, so none of this lands
        in any op's wall.
        """
        now = self.clock()
        cost, backward_cost = OP_COSTS[name](
            out.data, [p.data for p in parents], ctx)
        stage_name = self.current_stage
        self._append(name, self._phase, stage_name, self._cursor,
                     now - self._cursor, cost)
        out._op = (name, stage_name, backward_cost)
        self.mark()

    # -- backward execution -------------------------------------------

    def run_backward(self, node) -> None:
        """Execute and time one tape node's backward closure."""
        meta = node._op
        if meta is not None:
            name, stage_name, cost = meta
        else:
            name, stage_name, cost = "op", STAGE_OTHER, ZERO_COST
        t0 = self.clock()
        node._backward(node.grad)
        self.mark()
        self._append(name, PHASE_BACKWARD, stage_name, t0,
                     self._cursor - t0, cost)

    # -- aggregation ---------------------------------------------------

    @staticmethod
    def _fold(records: list[OpRecord],
              key: Callable[[OpRecord], str]) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for rec in records:
            bucket = out.get(key(rec))
            if bucket is None:
                bucket = out[key(rec)] = {
                    "count": 0, "flops": 0.0, "bytes_read": 0.0,
                    "bytes_written": 0.0, "wall": 0.0}
            bucket["count"] += 1
            bucket["flops"] += rec.cost.flops
            bucket["bytes_read"] += rec.cost.bytes_read
            bucket["bytes_written"] += rec.cost.bytes_written
            bucket["wall"] += rec.wall
        return out

    def totals(self) -> dict[str, float]:
        flops = sum(r.cost.flops for r in self.records)
        br = sum(r.cost.bytes_read for r in self.records)
        bw = sum(r.cost.bytes_written for r in self.records)
        moved = br + bw
        return {
            "ops": len(self.records),
            "flops": flops,
            "bytes_read": br,
            "bytes_written": bw,
            "wall": sum(r.wall for r in self.records),
            "arithmetic_intensity": flops / moved if moved else 0.0,
        }

    def by_op(self) -> dict[str, dict[str, float]]:
        return self._fold(self.records, lambda r: r.name)

    def by_stage(self) -> dict[str, dict[str, float]]:
        return self._fold(self.records, lambda r: r.stage)

    def by_phase(self) -> dict[str, dict[str, float]]:
        return self._fold(self.records, lambda r: r.phase)

    def summary(self) -> dict[str, Any]:
        """JSON-serializable profile dump (the run-registry payload)."""
        return {
            "schema_version": 1,
            "totals": self.totals(),
            "by_op": self.by_op(),
            "by_stage": self.by_stage(),
            "by_phase": self.by_phase(),
            "records_dropped": self.records_dropped,
        }

    def render(self) -> str:
        """Aligned text summary for CLI output."""
        lines = ["== profile =="]
        t = self.totals()
        lines.append(
            f"  ops={int(t['ops'])} flops={t['flops']:.3e} "
            f"bytes={t['bytes_read'] + t['bytes_written']:.3e} "
            f"wall={t['wall']:.3e}s "
            f"intensity={t['arithmetic_intensity']:.2f} flop/B")
        for title, table in (("op", self.by_op()),
                             ("stage", self.by_stage()),
                             ("phase", self.by_phase())):
            lines.append(f"  -- by {title} --")
            ordered = sorted(table.items(), key=lambda kv: -kv[1]["wall"])
            for name, row in ordered:
                moved = row["bytes_read"] + row["bytes_written"]
                lines.append(
                    f"  {name:16s} n={int(row['count']):5d} "
                    f"flops={row['flops']:.3e} bytes={moved:.3e} "
                    f"wall={row['wall']:.3e}s")
        return "\n".join(lines)

    # -- trace export --------------------------------------------------

    def export_trace(self, recorder: TraceRecorder) -> None:
        """Emit op spans and a counter track into a trace recorder.

        Spans land on ``prof/forward`` / ``prof/backward`` tracks; a
        Chrome counter series (``ph="C"``) carries the cumulative FLOPs.
        """
        cumulative = 0.0
        for rec in self.records:
            recorder.span(rec.name, CAT_PROF, rec.ts, rec.wall,
                          track=f"prof/{rec.phase}",
                          args={"stage": rec.stage,
                                "flops": rec.cost.flops,
                                "bytes_read": rec.cost.bytes_read,
                                "bytes_written": rec.cost.bytes_written,
                                "intensity":
                                    rec.cost.arithmetic_intensity})
            cumulative += rec.cost.flops
            recorder.counter("flops_cumulative", CAT_PROF,
                             rec.ts + rec.wall, {"flops": cumulative},
                             track="prof/counters")


# ----------------------------------------------------------------------
# Installing the process-wide profiler (the slot is repro.obs's)
# ----------------------------------------------------------------------

@contextlib.contextmanager
def profiling(prof: Profiler | None = None):
    """Enable profiling for the dynamic extent of the context, then
    restore whatever profiler was installed before."""
    prof = prof if prof is not None else Profiler()
    previous = set_profiler(prof)
    prof.mark()
    try:
        yield prof
    finally:
        set_profiler(previous)


def traced_peak(fn: Callable[..., Any], *args: Any,
                **kwargs: Any) -> tuple[Any, int]:
    """``(fn(*args, **kwargs), peak)``: ``peak`` is the most bytes
    ``tracemalloc`` saw allocated during the call beyond those traced
    at entry.

    An already-running ``tracemalloc`` session keeps running (its peak
    is reset); otherwise tracing starts and stops around the call.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


# ----------------------------------------------------------------------
# Closed-form cost helpers (shared with tests and calibration)
# ----------------------------------------------------------------------

def matmul_cost(a_shape: tuple[int, ...], b_shape: tuple[int, ...],
                out_shape: tuple[int, ...],
                itemsize: int | None = None) -> tuple[OpCost, OpCost]:
    """Forward and backward costs of (possibly batched) ``a @ b``.

    Forward: ``2 * |out| * k`` FLOPs.  Backward computes both
    ``grad @ b.T`` and ``a.T @ grad`` — two GEMMs of the same
    multiply-accumulate volume, so ``4 * |out| * k``.
    """
    isz = itemsize if itemsize is not None else default_itemsize()
    k = a_shape[-1]
    a_size = int(np.prod(a_shape))
    b_size = int(np.prod(b_shape))
    out_size = int(np.prod(out_shape))
    fwd = OpCost(flops=2.0 * out_size * k,
                 bytes_read=(a_size + b_size) * isz,
                 bytes_written=out_size * isz)
    bwd = OpCost(flops=4.0 * out_size * k,
                 bytes_read=(out_size + a_size + b_size) * isz,
                 bytes_written=(a_size + b_size) * isz)
    return fwd, bwd


#: Per-element FLOP factors (forward, backward) of the elementwise ops.
#: Conventions: add/sub/mul/compare = 1, divide = 4, transcendental
#: (exp/log/tanh/sqrt) = 6.  E.g. gelu forward is ~4 muls/adds for the
#: cubic polynomial, one tanh (6) and 4 more muls/adds = 14; softmax
#: pays max + subtract + exp + sum + divide per element = 12.
_EW: dict[str, tuple[float, float]] = {
    "add": (1.0, 1.0),
    "neg": (1.0, 1.0),
    "mul": (1.0, 2.0),
    "div": (4.0, 9.0),
    "pow": (7.0, 9.0),
    "relu": (2.0, 1.0),
    "gelu": (14.0, 18.0),
    "exp": (6.0, 1.0),
    "softmax": (12.0, 4.0),
    "layer_norm": (9.0, 12.0),
}


def elementwise_cost(name: str, n: int, n_inputs: int = 1,
                     itemsize: int | None = None) -> tuple[OpCost, OpCost]:
    """Forward/backward cost of an elementwise op over ``n`` elements.

    Forward reads every input and writes the output; backward reads the
    upstream gradient plus the saved inputs and writes one gradient per
    input.
    """
    isz = itemsize if itemsize is not None else default_itemsize()
    f_fwd, f_bwd = _EW[name]
    fwd = OpCost(flops=f_fwd * n,
                 bytes_read=n_inputs * n * isz,
                 bytes_written=n * isz)
    bwd = OpCost(flops=f_bwd * n,
                 bytes_read=(1 + n_inputs) * n * isz,
                 bytes_written=n_inputs * n * isz)
    return fwd, bwd


def reduction_cost(n_in: int, n_out: int,
                   itemsize: int | None = None) -> tuple[OpCost, OpCost]:
    """Cost of a sum-reduction from ``n_in`` to ``n_out`` elements."""
    isz = itemsize if itemsize is not None else default_itemsize()
    fwd = OpCost(flops=float(max(n_in - n_out, 0)),
                 bytes_read=n_in * isz,
                 bytes_written=n_out * isz)
    bwd = OpCost(flops=0.0,
                 bytes_read=n_out * isz,
                 bytes_written=n_in * isz)
    return fwd, bwd


def routes_of(crit) -> int:
    """Live routes ``r <= k*T`` (:meth:`RoutingCriteria.routes`): the
    element count the sparse kernels actually touch.
    """
    return int(crit.routes()[0].size)


def sparse_encode_cost(routes: int, cells: int, model_dim: int,
                       itemsize: int | None = None) -> OpCost:
    """fast_encode forward: zero-fill ``cells = E*dC`` rows, then
    scatter-copy ``routes`` rows of ``model_dim`` — no FLOPs, pure data
    movement (``O(T*k*M)`` useful elements)."""
    isz = itemsize if itemsize is not None else default_itemsize()
    return OpCost(flops=0.0,
                  bytes_read=routes * model_dim * isz,
                  bytes_written=(cells + routes) * model_dim * isz)


def sparse_encode_backward_cost(routes: int, tokens: int, model_dim: int,
                                itemsize: int | None = None) -> OpCost:
    """fast_encode backward: gather ``routes`` cell-gradient rows and
    scatter-add into ``tokens`` token gradients."""
    isz = itemsize if itemsize is not None else default_itemsize()
    return OpCost(flops=float(routes * model_dim),
                  bytes_read=2.0 * routes * model_dim * isz,
                  bytes_written=(tokens + routes) * model_dim * isz)


def sparse_decode_cost(routes: int, tokens: int, model_dim: int,
                       itemsize: int | None = None) -> OpCost:
    """fast_decode forward: per route one gate multiply and one add per
    element (``2*r*M`` FLOPs) into a zeroed ``(T, M)`` output."""
    isz = itemsize if itemsize is not None else default_itemsize()
    return OpCost(flops=2.0 * routes * model_dim,
                  bytes_read=(2.0 * routes * model_dim + routes) * isz,
                  bytes_written=(tokens + routes) * model_dim * isz)


def sparse_decode_backward_cost(routes: int, cells: int, gate_slots: int,
                                model_dim: int,
                                itemsize: int | None = None) -> OpCost:
    """fast_decode backward: grad_z scatter-add (``2*r*M``) plus the
    per-route gate-gradient dot products (``2*r*M``)."""
    isz = itemsize if itemsize is not None else default_itemsize()
    return OpCost(
        flops=4.0 * routes * model_dim,
        bytes_read=3.0 * routes * model_dim * isz,
        bytes_written=((cells + routes) * model_dim + gate_slots) * isz)


# ----------------------------------------------------------------------
# The cost table: op name -> (out, parents, ctx) -> (forward, backward)
# ----------------------------------------------------------------------

def _elementwise(name: str, n_inputs: int = 1) -> Callable:
    """Table entry of an elementwise op streaming ``n_inputs`` inputs
    (broadcast scalars and affine parameters are not streamed)."""
    def cost(out, parents, ctx):
        return elementwise_cost(name, out.size, n_inputs,
                                itemsize=out.itemsize)
    return cost


def _cross_entropy_op_cost(out, parents, ctx):
    logits, = parents
    moved = logits.size * logits.itemsize
    return (OpCost(flops=10.0 * logits.size, bytes_read=moved,
                   bytes_written=logits.itemsize),
            OpCost(flops=8.0 * logits.size, bytes_read=moved,
                   bytes_written=moved))


def _route_gates_op_cost(out, parents, ctx):
    """``Routing.gates``, priced as the chain it replaced: a gather of
    ``k*T`` probabilities (scatter-add into a zeroed ``(T, E)``
    backward), a free transpose and, for k > 1, the sum / add / div
    that normalise the ``(k, T)`` gates."""
    (k, t), isz = out.shape, out.itemsize
    moved = out.size * isz
    costs = [(OpCost(bytes_read=moved, bytes_written=moved),
              OpCost(flops=float(out.size), bytes_read=2.0 * moved,
                     bytes_written=parents[0].size * isz))]
    if k > 1:
        costs += [reduction_cost(out.size, t, itemsize=isz),
                  elementwise_cost("add", t, 2, itemsize=isz),
                  elementwise_cost("div", out.size, 2, itemsize=isz)]
    return tuple(sum(c, ZERO_COST) for c in zip(*costs))


def _route_l_aux_op_cost(out, parents, ctx):
    """``Routing.l_aux``, priced as the chain it replaced: the column
    sum of the ``(T, E)`` probabilities, ``* (1/T)``, ``* routed_frac``,
    the sum and the scalar ``* E``."""
    n, e = parents[0].size, parents[0].shape[1]
    isz = out.itemsize
    costs = [reduction_cost(n, e, itemsize=isz),
             elementwise_cost("mul", e, 2, itemsize=isz),
             elementwise_cost("mul", e, 2, itemsize=isz),
             reduction_cost(e, 1, itemsize=isz),
             elementwise_cost("mul", 1, 2, itemsize=isz)]
    return tuple(sum(c, ZERO_COST) for c in zip(*costs))


def _moe_dispatch_op_cost(out, parents, crit):
    routes = routes_of(crit)
    m = parents[0].shape[1]
    return (sparse_encode_cost(routes, crit.num_experts * crit.capacity,
                               m, itemsize=out.itemsize),
            sparse_encode_backward_cost(routes, crit.num_tokens, m,
                                        itemsize=out.itemsize))


def _moe_combine_op_cost(out, parents, live):
    """``live`` is the criteria the decode ran on (live gate values)."""
    routes = routes_of(live)
    m = parents[0].shape[-1]
    return (sparse_decode_cost(routes, live.num_tokens, m,
                               itemsize=out.itemsize),
            sparse_decode_backward_cost(
                routes, live.num_experts * live.capacity,
                live.gates.size, m, itemsize=out.itemsize))


def _affine_cost(x_shape, w_shape, out_shape, bias: bool, isz: int):
    """``x @ w (+ b)``: the matmul plus the broadcast add it fuses."""
    fwd, bwd = matmul_cost(x_shape, w_shape, out_shape, itemsize=isz)
    if bias:
        a_f, a_b = elementwise_cost("add", int(np.prod(out_shape)), 2,
                                    itemsize=isz)
        fwd, bwd = fwd + a_f, bwd + a_b
    return fwd, bwd


def _linear_op_cost(out, parents, ctx):
    """The fused Linear, priced as the matmul and add it replaces."""
    return _affine_cost(parents[0].shape, parents[1].shape, out.shape,
                        len(parents) == 3, out.itemsize)


def _ffn_op_cost(out, parents, activation):
    """The fused dense FFN, priced as the two affine maps and the
    activation it replaces."""
    x, w1, _, w2, _ = parents
    hidden = (*x.shape[:-1], w1.shape[-1])
    isz = out.itemsize
    f1, b1 = _affine_cost(x.shape, w1.shape, hidden, True, isz)
    fa, ba = elementwise_cost(activation, int(np.prod(hidden)),
                              itemsize=isz)
    f2, b2 = _affine_cost(hidden, w2.shape, out.shape, True, isz)
    return f1 + fa + f2, b1 + ba + b2


def _expert_ffn_op_cost(out, parents, ctx):
    """The fused expert FFN, composed from the two per-expert GEMMs
    plus the activation over the rows the kernels execute — the summed
    occupancy, not ``E * cap`` (serial algorithm; the parallel
    executor's recompute is a schedule choice, not counted)."""
    activation, rows = ctx
    (e, c, m), v = parents[0].shape, parents[1].shape[-1]
    r = e * c if rows is None else int(np.sum(rows))
    isz = out.itemsize
    g1_f, g1_b = matmul_cost((r, m), (e, m, v), (r, v), itemsize=isz)
    a_f, a_b = elementwise_cost(activation, r * v, itemsize=isz)
    g2_f, g2_b = matmul_cost((r, v), (e, v, m), (r, m), itemsize=isz)
    return g1_f + a_f + g2_f, g1_b + a_b + g2_b


#: Every op name ``Tensor.from_op`` is called with under
#: ``repro.autograd``; a name missing here is a ``KeyError`` under
#: profiling, not a silent zero.  Only add/mul/div stream two inputs.
OP_COSTS: dict[str, Callable] = {
    # gelu and relu price only the fused ops' activation: no tape op of
    # their own.
    **{name: _elementwise(name, 2 if name in ("add", "mul", "div") else 1)
       for name in _EW if name not in ("gelu", "relu")},
    # A view: no FLOPs, no data movement.
    "transpose": lambda out, parents, ctx: (ZERO_COST, ZERO_COST),
    "matmul": lambda out, parents, ctx: matmul_cost(
        parents[0].shape, parents[1].shape, out.shape,
        itemsize=out.itemsize),
    "linear": _linear_op_cost,
    "ffn": _ffn_op_cost,
    "sum": lambda out, parents, ctx: reduction_cost(
        parents[0].size, out.size, itemsize=out.itemsize),
    "cross_entropy": _cross_entropy_op_cost,
    "route_gates": _route_gates_op_cost,
    "route_l_aux": _route_l_aux_op_cost,
    "moe_dispatch": _moe_dispatch_op_cost,
    "moe_combine": _moe_combine_op_cost,
    "expert_ffn": _expert_ffn_op_cost,
}
