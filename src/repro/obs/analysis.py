"""Trace analysis: critical paths, attribution, and what-if bounds.

The paper's evaluation argues from *time breakdowns* (Figures 22-24:
where each step's time goes across All-to-All, expert GEMMs, and
encode/decode); this module gives the simulator half of the repo the
same explanatory power.  Given any :class:`~repro.cluster.simulator.
SimResult` it answers three questions a raw makespan cannot:

* **Why does the schedule take this long?** — :func:`critical_path`
  extracts the longest finish-time chain through the executed op DAG
  (dependency edges plus the realized same-stream FIFO edges), and
  :func:`critical_path_breakdown` splits the chain's time by op class.
* **Where does the time go?** — :func:`stream_attribution` /
  :func:`gpu_attribution` partition ``[0, makespan]`` into compute,
  (exposed) communication, other, and idle, per stream and per GPU;
  the buckets sum to the makespan exactly.  The per-GPU view also
  yields **overlap efficiency**: the fraction of communication-active
  time hidden under concurrent compute — the quantity adaptive
  pipelining exists to maximize.
* **What could optimization still buy?** — :func:`whatif_bounds`
  re-simulates counterfactual variants of the schedule: zero-cost
  communication (the floor for *any* comms optimization) and
  infinite-bandwidth links (comm ops collapse to their
  :attr:`~repro.cluster.simulator.Op.latency` floor — what a fabric
  upgrade alone could buy).

:func:`analyze` bundles all of it into an :class:`AnalysisReport` with
an aligned-table :meth:`~AnalysisReport.render`, which is what the
``repro analyze`` CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.simulator import (
    Op,
    Schedule,
    SimResult,
    simulate,
)

__all__ = [
    "COMM_KINDS",
    "classify_kind",
    "critical_path",
    "critical_path_breakdown",
    "StreamAttribution",
    "GpuAttribution",
    "stream_attribution",
    "gpu_attribution",
    "overlap_efficiency",
    "clone_schedule",
    "whatif_bounds",
    "AnalysisReport",
    "analyze",
]

#: Op kinds that count as communication for attribution purposes.
COMM_KINDS = frozenset({"comm", "comm_memcpy"})


def classify_kind(kind: str) -> str:
    """Collapse op kinds into the attribution classes."""
    if kind == "compute":
        return "compute"
    if kind in COMM_KINDS:
        return "comm"
    return "other"


def _eps(result: SimResult) -> float:
    """Comparison slack scaled to the result's time magnitude."""
    return max(1e-12, 1e-9 * max(result.makespan, 1.0))


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------

def critical_path(result: SimResult) -> list[Op]:
    """Longest finish-time chain through the executed DAG.

    Walks backward from the op that finishes last: each step moves to
    the predecessor whose completion released the current op — either
    a declared dependency or the op that held the same ``(gpu,
    stream)`` FIFO slot — choosing the latest-finishing candidate.  In
    a work-conserving schedule every op starts exactly when its last
    blocker ends, so the returned chain is contiguous in time and its
    total span equals the makespan.

    Returns ops in execution order (earliest first).  Empty schedules
    return an empty list.
    """
    spans = result.spans
    if not spans:
        return []
    eps = _eps(result)

    by_stream: dict[tuple[int, str], list[Op]] = {}
    for op in spans:
        by_stream.setdefault((op.gpu, op.stream), []).append(op)
    for ops in by_stream.values():
        ops.sort(key=lambda o: (spans[o][0], spans[o][1], o._uid))

    def terminal_key(op: Op) -> tuple[float, float, int]:
        return (spans[op][1], spans[op][0], op._uid)

    current = max(spans, key=terminal_key)
    path = [current]
    visited = {current}
    while True:
        start = spans[current][0]
        if start <= eps:
            break
        candidates = [d for d in current.deps
                      if d in spans and d not in visited]
        for other in by_stream[(current.gpu, current.stream)]:
            if (other not in visited
                    and spans[other][1] <= start + eps
                    and other is not current):
                candidates.append(other)
        if not candidates:
            break
        best = max(candidates, key=lambda o: (spans[o][1], o._uid))
        if spans[best][1] < start - eps:
            # An idle gap before `current`: nothing released it, so the
            # chain (and the explanation) ends here.
            break
        current = best
        path.append(current)
        visited.add(current)
    path.reverse()
    return path


def critical_path_breakdown(result: SimResult,
                            path: list[Op] | None = None
                            ) -> dict[str, float]:
    """Time on the critical path split by attribution class.

    The values sum to the span of the chain (== makespan when the
    chain reaches back to t=0).
    """
    if path is None:
        path = critical_path(result)
    breakdown = {"compute": 0.0, "comm": 0.0, "other": 0.0}
    for op in path:
        start, end = result.spans[op]
        breakdown[classify_kind(op.kind)] += end - start
    return breakdown


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StreamAttribution:
    """Makespan partition for one ``(gpu, stream)`` FIFO lane.

    Ops on a stream serialize, so the busy buckets are plain duration
    sums; ``idle`` is defined as the remainder against the global
    makespan, making ``compute + comm + other + idle == makespan``
    exact by construction.
    """

    gpu: int
    stream: str
    compute: float
    comm: float
    other: float
    idle: float

    @property
    def busy(self) -> float:
        return self.compute + self.comm + self.other


@dataclass(frozen=True)
class GpuAttribution:
    """Makespan partition for one GPU across all of its streams.

    Every instant of ``[0, makespan]`` is classified exactly once with
    priority compute > comm > other: ``comm`` here is therefore
    *exposed* communication — time the GPU spent communicating with no
    concurrent compute to hide behind.  ``comm_active`` /
    ``comm_overlapped`` additionally measure total communication-active
    time and the part of it hidden under compute; their ratio is the
    GPU's overlap efficiency.
    """

    gpu: int
    compute: float
    comm: float          # exposed (unhidden) communication
    other: float
    idle: float
    comm_active: float
    comm_overlapped: float

    @property
    def overlap_efficiency(self) -> float:
        if self.comm_active <= 0.0:
            return 0.0
        return self.comm_overlapped / self.comm_active


def stream_attribution(result: SimResult) -> list[StreamAttribution]:
    """Per-stream compute/comm/other/idle partition of the makespan."""
    buckets: dict[tuple[int, str], dict[str, float]] = {}
    for op, (start, end) in result.spans.items():
        lane = buckets.setdefault(
            (op.gpu, op.stream), {"compute": 0.0, "comm": 0.0, "other": 0.0})
        lane[classify_kind(op.kind)] += end - start
    return [
        StreamAttribution(
            gpu=gpu, stream=stream, compute=lane["compute"],
            comm=lane["comm"], other=lane["other"],
            idle=result.makespan - sum(lane.values()))
        for (gpu, stream), lane in sorted(buckets.items())
    ]


def gpu_attribution(result: SimResult) -> list[GpuAttribution]:
    """Per-GPU partition of ``[0, makespan]`` plus overlap accounting."""
    per_gpu: dict[int, list[tuple[float, float, str]]] = {}
    for op, (start, end) in result.spans.items():
        if end > start:
            per_gpu.setdefault(op.gpu, []).append(
                (start, end, classify_kind(op.kind)))
    out = []
    for gpu in sorted(per_gpu):
        intervals = per_gpu[gpu]
        points = sorted({t for s, e, _ in intervals for t in (s, e)})
        compute = comm_exposed = other = 0.0
        comm_active = comm_overlapped = 0.0
        for lo, hi in zip(points, points[1:]):
            if hi <= lo:
                continue
            width = hi - lo
            active = {cls for s, e, cls in intervals if s < hi and e > lo}
            if "comm" in active:
                comm_active += width
                if "compute" in active:
                    comm_overlapped += width
            if "compute" in active:
                compute += width
            elif "comm" in active:
                comm_exposed += width
            elif active:
                other += width
        idle = result.makespan - (compute + comm_exposed + other)
        out.append(GpuAttribution(
            gpu=gpu, compute=compute, comm=comm_exposed, other=other,
            idle=idle, comm_active=comm_active,
            comm_overlapped=comm_overlapped))
    return out


def overlap_efficiency(result: SimResult) -> float:
    """Cluster-wide fraction of communication time hidden by compute.

    0.0 when communication never overlaps compute (or there is none);
    1.0 when every communication-active instant had concurrent compute
    on the same GPU.  This is the scalar the adaptive pipeliner's
    degree > 1 schedules exist to raise (paper Figure 14 / 22).
    """
    total_active = total_overlapped = 0.0
    for gpu in gpu_attribution(result):
        total_active += gpu.comm_active
        total_overlapped += gpu.comm_overlapped
    if total_active <= 0.0:
        return 0.0
    return total_overlapped / total_active


# ----------------------------------------------------------------------
# What-if counterfactuals
# ----------------------------------------------------------------------

def clone_schedule(schedule: Schedule,
                   work_fn=None) -> Schedule:
    """Deep-copy a schedule, optionally rewriting each op's work.

    ``work_fn(op) -> float`` maps the original op to the clone's
    nominal work; dependencies are rewired onto the cloned ops.
    """
    mapping: dict[Op, Op] = {}

    def clone(op: Op) -> Op:
        if op in mapping:
            return mapping[op]
        deps = tuple(clone(d) for d in op.deps)
        work = op.work if work_fn is None else float(work_fn(op))
        mapping[op] = Op(work=work, gpu=op.gpu, stream=op.stream,
                         kind=op.kind, deps=deps, label=op.label,
                         latency=min(op.latency, work))
        return mapping[op]

    out = Schedule()
    for op in schedule.ops:
        out.add(clone(op))
    return out


def whatif_bounds(schedule: Schedule) -> dict[str, float]:
    """Counterfactual makespans bounding further comms optimisation.

    * ``actual`` — the schedule as given.
    * ``infinite_bandwidth`` — every communication op collapsed to its
      bandwidth-independent :attr:`~repro.cluster.simulator.Op.latency`
      floor: the best any fabric upgrade alone could do.
    * ``zero_comm`` — communication free: the floor for *any*
      communication optimisation (what remains is compute and
      dependency structure).

    Invariant: ``zero_comm <= infinite_bandwidth <= actual``.

    Counterfactual runs are hidden from the process-wide observer so an
    enabled trace only carries the real execution.
    """
    from repro import obs

    def run(work_fn=None) -> float:
        return simulate(clone_schedule(schedule, work_fn)).makespan

    previous = obs.set_observer(None)
    try:
        actual = run()
        inf_bw = run(lambda op: (min(op.work, op.latency)
                                 if op.kind in COMM_KINDS else op.work))
        zero = run(lambda op: (0.0 if op.kind in COMM_KINDS
                               else op.work))
    finally:
        obs.set_observer(previous)
    return {"actual": actual, "infinite_bandwidth": inf_bw,
            "zero_comm": zero}


# ----------------------------------------------------------------------
# The bundled report
# ----------------------------------------------------------------------

@dataclass
class AnalysisReport:
    """Everything ``repro analyze`` prints, as data."""

    makespan: float
    streams: list[StreamAttribution]
    gpus: list[GpuAttribution]
    critical: list[Op]
    critical_times: list[tuple[float, float]]
    critical_breakdown: dict[str, float]
    overlap_efficiency: float
    bounds: dict[str, float] = field(default_factory=dict)

    def render(self, max_critical_ops: int = 20) -> str:
        from repro.bench.harness import Table

        def pct(x: float) -> str:
            return f"{x / self.makespan:.1%}" if self.makespan > 0 else "-"

        def sec(x: float) -> str:
            return f"{x * 1e3:.3f} ms"

        lines = [f"makespan: {sec(self.makespan)}"]

        streams = Table("Per-stream attribution "
                        "(compute + comm + other + idle == makespan)",
                        ["gpu/stream", "compute", "comm", "other",
                         "idle", "busy"])
        for s in self.streams:
            streams.add_row(f"gpu{s.gpu}/{s.stream}", sec(s.compute),
                            sec(s.comm), sec(s.other), sec(s.idle),
                            pct(s.busy))
        lines += ["", streams.render()]

        gpus = Table("Per-GPU attribution (comm column = exposed, "
                     "i.e. not hidden by compute)",
                     ["gpu", "compute", "exposed comm", "other", "idle",
                      "comm hidden", "overlap eff"])
        for g in self.gpus:
            gpus.add_row(f"gpu{g.gpu}", sec(g.compute), sec(g.comm),
                         sec(g.other), sec(g.idle),
                         sec(g.comm_overlapped),
                         f"{g.overlap_efficiency:.1%}")
        lines += ["", gpus.render()]

        crit = Table("Critical path (longest finish-time chain)",
                     ["#", "op", "kind", "gpu/stream", "start", "dur"])
        shown = list(zip(self.critical, self.critical_times))
        hidden = max(0, len(shown) - max_critical_ops)
        shown = shown[hidden:]
        for i, (op, (start, end)) in enumerate(shown):
            crit.add_row(hidden + i, op.label or op.kind, op.kind,
                         f"gpu{op.gpu}/{op.stream}", sec(start),
                         sec(end - start))
        lines += ["", crit.render()]
        if hidden > 0:
            lines.append(f"  ({hidden} earlier critical op(s) omitted)")
        bd = self.critical_breakdown
        total = sum(bd.values())
        if total > 0:
            lines.append(
                "critical-path composition: "
                + ", ".join(f"{k} {v * 1e3:.3f} ms ({v / total:.0%})"
                            for k, v in bd.items() if v > 0))
        lines.append(f"overlap efficiency: {self.overlap_efficiency:.1%} "
                     "of communication time hidden under compute")
        if self.bounds and self.bounds["actual"] > 0:
            b = self.bounds
            lines.append(
                f"what-if bounds: actual {sec(b['actual'])} | "
                f"infinite bandwidth {sec(b['infinite_bandwidth'])} "
                f"(-{1 - b['infinite_bandwidth'] / b['actual']:.1%}) | "
                f"zero-cost comm {sec(b['zero_comm'])} "
                f"(-{1 - b['zero_comm'] / b['actual']:.1%})")
        return "\n".join(lines)


def analyze(result: SimResult,
            schedule: Schedule | None = None) -> AnalysisReport:
    """Full analysis of one simulation outcome.

    With ``schedule`` provided (or recoverable from the result's own
    ops), the what-if counterfactuals are re-simulated as well.
    """
    if schedule is None and result.spans:
        schedule = Schedule(ops=list(result.spans))
    path = critical_path(result)
    report = AnalysisReport(
        makespan=result.makespan,
        streams=stream_attribution(result),
        gpus=gpu_attribution(result),
        critical=path,
        critical_times=[result.spans[op] for op in path],
        critical_breakdown=critical_path_breakdown(result, path),
        overlap_efficiency=overlap_efficiency(result),
    )
    if schedule is not None:
        report.bounds = whatif_bounds(schedule)
    return report
