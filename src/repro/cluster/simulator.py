"""Discrete-event simulator for multi-stream GPU execution.

The pipelining study (paper Sections 2.3 and 3.3) needs a notion of a
GPU running a *computation stream* and a *communication stream*
concurrently, where concurrently running kernels interfere: "the
slowdown from running NCCL kernels concurrently with computation
kernels on the same GPU is difficult to estimate" — and differs per
All-to-All algorithm because 2DH also launches stride-memcpy kernels
that occupy SMs.

The simulator executes a DAG of :class:`Op` objects.  Each op carries
its nominal duration (``work`` seconds at full rate); while other ops
are active on the same GPU, its rate drops according to an interference
matrix.  Ops bound to the same ``(gpu, stream)`` run FIFO.  Collective
latencies themselves are computed analytically by
:mod:`repro.collectives.schedule` — only one *representative* GPU needs
simulating for symmetric collectives, which keeps 4,096-GPU sweeps
instant.

Fault awareness (``faults=`` argument): a
:class:`repro.resilience.faults.FaultPlan` injects straggler slowdown
windows, link-degradation windows, and op-failure instants into the
run.  Rates are rescaled inside fault windows, and a failed op is
*retried with timeout* — its progress is discarded and the full
alpha-beta cost re-charged after the detection timeout — so
makespan-under-faults is a measurable quantity.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.obs import (
    CAT_CRITICAL,
    CAT_FAULT,
    CAT_SIM,
    Observer,
    get_observer,
)
from repro.obs.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.resilience.faults import FaultPlan

__all__ = [
    "Op",
    "SLOWDOWN",
    "interference_rate",
    "Schedule",
    "SimResult",
    "simulate",
]

_EPS = 1e-12


@dataclass
class Op:
    """One kernel-level unit of work.

    Attributes
    ----------
    work:
        Duration in seconds when running alone at full rate.
    gpu:
        Index of the GPU whose streams this op occupies.
    stream:
        Stream name; ops sharing ``(gpu, stream)`` serialize FIFO.
    kind:
        Interference class (``"compute"``, ``"comm"``,
        ``"comm_memcpy"`` for algorithms with SM-occupying copy
        kernels, or ``"host"`` for zero-interference bookkeeping).
    deps:
        Ops that must complete before this one may start.
    label:
        Free-form tag for debugging and result inspection.
    latency:
        The bandwidth-independent share of ``work`` in seconds
        (per-message overheads, wire latency, local stride copies).
        The what-if analysis in :mod:`repro.obs.analysis` uses it as
        the floor a communication op keeps under infinite network
        bandwidth; 0 means "fully bandwidth-bound".
    """

    work: float
    gpu: int = 0
    stream: str = "compute"
    kind: str = "compute"
    deps: tuple["Op", ...] = ()
    label: str = ""
    latency: float = 0.0
    _uid: int = field(default_factory=itertools.count().__next__, repr=False)

    def __post_init__(self) -> None:
        if self.work < 0 or not math.isfinite(self.work):
            raise ValueError(f"op work must be finite and >= 0, "
                             f"got {self.work}")
        if self.latency < 0 or not math.isfinite(self.latency):
            raise ValueError(f"op latency must be finite and >= 0, "
                             f"got {self.latency}")

    def __hash__(self) -> int:
        return self._uid


#: Pairwise slowdown factors between concurrently active op kinds:
#: ``SLOWDOWN[victim][aggressor]`` multiplies the victim's runtime while
#: an op of the aggressor kind is active on the same GPU.  Plain NCCL
#: kernels lightly perturb compute, whereas the 2DH stride-copy kernels
#: compete for SMs more heavily — the asymmetry that makes the
#: jointly-optimal pipelining strategy algorithm-dependent (paper
#: Figure 5).
SLOWDOWN: dict[str, dict[str, float]] = {
    "compute": {"comm": 1.08, "comm_memcpy": 1.18},
    "comm": {"compute": 1.22},
    "comm_memcpy": {"compute": 1.38},
}


def interference_rate(kind: str, active_kinds: list[str]) -> float:
    """Execution rate (<= 1.0) of ``kind`` given co-active kinds; one
    aggressor of each kind is enough."""
    table = SLOWDOWN.get(kind, {})
    factor = 1.0
    for other in dict.fromkeys(active_kinds):
        factor *= table.get(other, 1.0)
    return 1.0 / factor


@dataclass
class Schedule:
    """An ordered collection of ops forming a DAG."""

    ops: list[Op] = field(default_factory=list)

    def add(self, op: Op) -> Op:
        self.ops.append(op)
        return op

    def new_op(self, **kwargs) -> Op:
        return self.add(Op(**kwargs))

    def validate(self) -> None:
        known = set(self.ops)
        for op in self.ops:
            for dep in op.deps:
                if dep not in known:
                    raise ValueError(
                        f"op {op.label!r} depends on op {dep.label!r} "
                        "which is not part of the schedule")


@dataclass
class SimResult:
    """Simulation outcome: makespan, per-op spans, and fault tallies."""

    makespan: float
    spans: dict[Op, tuple[float, float]]
    retries: dict[Op, int] = field(default_factory=dict)
    faults_injected: int = 0
    faults_recovered: int = 0
    _uid: int = field(default_factory=itertools.count().__next__,
                      repr=False, compare=False)

    def trace_events(self, critical: Sequence[Op] = ()
                     ) -> Iterator[TraceEvent]:
        """The simulator's one trace feed: one event per op on track
        ``sim/gpu{g}/{stream}``, in start order (ties in completion
        order, which is each stream's FIFO order); zero-duration ops
        (barriers) are instants so they stay visible.

        ``args`` carries what :meth:`from_trace_events` rebuilds the
        DAG from — ``uid``, ``deps``, ``kind``, ``work``, ``latency``,
        the exact ``span`` in seconds (the file's microsecond
        ``ts``/``dur`` round by an ulp, enough to reorder ops that
        start or end together) and ``sim``, which tells this
        simulation's ops from another's in the same recorder.  Ops in
        ``critical`` (:func:`repro.obs.analysis.critical_path`) move to
        the ``critical`` category with their ``critical_index``, and
        consecutive chain entries are linked by flow events.
        """
        order = {op: i for i, op in enumerate(critical)}
        for op, (start, end) in sorted(self.spans.items(),
                                       key=lambda kv: kv[1][0]):
            args = {"sim": self._uid, "uid": op._uid,
                    "deps": [d._uid for d in op.deps],
                    "kind": op.kind, "work": op.work,
                    "span": [start, end]}
            if op.latency > 0:
                args["latency"] = op.latency
            if op in self.retries:
                args["retries"] = self.retries[op]
            if op in order:
                args["critical_index"] = order[op]
            yield TraceEvent(
                name=op.label or op.kind,
                cat=CAT_CRITICAL if op in order else CAT_SIM,
                ts=start, dur=end - start, track=_track(op),
                phase="X" if end > start else "i", args=args)
        for i, (a, b) in enumerate(zip(critical, critical[1:])):
            for op, ts, phase in ((a, self.spans[a][1], "s"),
                                  (b, self.spans[b][0], "f")):
                yield TraceEvent(
                    name="critical_path", cat=CAT_CRITICAL, ts=ts,
                    track=_track(op), phase=phase,
                    args={"flow_id": i})

    @classmethod
    def from_trace_events(cls, events: Iterable[TraceEvent]
                          ) -> tuple["SimResult", Schedule]:
        """Inverse of :meth:`trace_events`: the result and op DAG of
        the last simulation recorded in ``events``.

        Events without a ``uid`` (wall-clock spans, fault markers,
        flows) are ignored; ``ValueError`` if no op event is left or a
        dependency points outside the simulation.
        """
        last: dict[int, TraceEvent] = {}
        sim = None
        for event in events:
            if event.phase in ("X", "i") and "uid" in event.args:
                if event.args.get("sim") != sim:
                    sim, last = event.args.get("sim"), {}
                last[event.args["uid"]] = event
        if not last:
            raise ValueError(
                "no replayable simulator op events (was the trace "
                "written from SimResult.trace_events?)")
        ops: dict[int, Op] = {}
        for uid, event in last.items():
            _, gpu, stream = event.track.split("/", 2)
            ops[uid] = Op(work=event.args["work"],
                          gpu=int(gpu.removeprefix("gpu")), stream=stream,
                          kind=event.args["kind"], label=event.name,
                          latency=event.args.get("latency", 0.0), _uid=uid)
        for uid, op in ops.items():
            deps = last[uid].args["deps"]
            missing = [d for d in deps if d not in ops]
            if missing:
                raise ValueError(f"op uid {uid} depends on unknown "
                                 f"uid(s) {missing}")
            op.deps = tuple(ops[d] for d in deps)
        spans = {ops[uid]: tuple(e.args["span"]) for uid, e in last.items()}
        result = cls(
            makespan=max(end for _, end in spans.values()), spans=spans,
            retries={ops[uid]: e.args["retries"]
                     for uid, e in last.items() if "retries" in e.args})
        return result, Schedule(ops=list(ops.values()))

    def record_trace(self, ob: Observer) -> None:
        """Append :meth:`trace_events` to the observer's recorder — the
        simulator half of the unified timeline."""
        if ob.recorder is not None:
            ob.recorder.extend(self.trace_events())
        ob.registry.histogram("sim.makespan").observe(self.makespan)
        ob.count("sim.ops", len(self.spans))


def _op_name(op: Op) -> str:
    return op.label or f"op#{op._uid}"


def _track(op: Op) -> str:
    return f"sim/gpu{op.gpu}/{op.stream}"


def simulate(schedule: Schedule,
             faults: "FaultPlan | None" = None) -> SimResult:
    """Run the schedule to completion and return op spans.

    The engine advances time between *rate change points* (op starts,
    op completions, and fault-window boundaries).  Between two such
    points every active op has a constant rate, so remaining work
    decreases linearly and the next completion can be computed in
    closed form.

    With ``faults``, op rates are multiplied by the plan's
    straggler/link-degradation factors inside their windows, and each
    :class:`~repro.resilience.faults.OpFailure` kills the matching
    active op at its instant: the victim's remaining work resets to its
    full nominal work plus the detection timeout (retry with alpha-beta
    re-charge).  Failures that hit an idle resource inject nothing but
    are still tallied.
    """
    schedule.validate()
    plan = faults if (faults is not None and not faults.empty()) else None

    remaining: dict[Op, float] = {op: op.work for op in schedule.ops}
    pending_deps: dict[Op, set[Op]] = {op: set(op.deps)
                                       for op in schedule.ops}
    # Reverse-dependents index, built once: completing an op only has
    # to visit its actual dependents instead of every op (the former
    # O(N^2) dependency-clearing).
    dependents: dict[Op, list[Op]] = {op: [] for op in schedule.ops}
    for op in schedule.ops:
        for dep in set(op.deps):
            dependents[dep].append(op)
    queues: dict[tuple[int, str], deque[Op]] = {}
    for op in schedule.ops:
        queues.setdefault((op.gpu, op.stream), deque()).append(op)

    active: dict[Op, float] = {}  # op -> start time
    busy: set[tuple[int, str]] = set()  # streams with an active op
    spans: dict[Op, tuple[float, float]] = {}
    done: set[Op] = set()
    retries: dict[Op, int] = {}
    faults_injected = 0
    faults_recovered = 0
    now = 0.0
    ob = get_observer()

    boundaries = plan.boundaries() if plan else []
    boundary_idx = 0
    failures = (sorted(plan.op_failures, key=lambda f: f.time)
                if plan else [])
    failure_idx = 0

    def complete(op: Op, start: float) -> None:
        nonlocal faults_recovered
        spans[op] = (start, now)
        done.add(op)
        busy.discard((op.gpu, op.stream))
        for other in dependents[op]:
            pending_deps[other].discard(op)
        if op in retries:
            faults_recovered += 1
            if ob is not None:
                ob.record_instant(
                    "recovered", CAT_FAULT, now,
                    track=_track(op),
                    args={"op": _op_name(op), "retries": retries[op]})

    def try_start_ops() -> bool:
        started = False
        for key, queue in queues.items():
            while queue:
                op = queue[0]
                if pending_deps[op] or key in busy:
                    break
                queue.popleft()
                if remaining[op] <= _EPS:
                    # Zero-work ops complete instantly without ever
                    # occupying the stream.
                    complete(op, now)
                    started = True
                else:
                    active[op] = now
                    busy.add(key)
                    started = True
        return started

    def fire_due_failures() -> None:
        nonlocal failure_idx, faults_injected
        while (failure_idx < len(failures)
               and failures[failure_idx].time <= now + _EPS):
            fault = failures[failure_idx]
            failure_idx += 1
            faults_injected += 1
            victims = [op for op in active
                       if op.gpu == fault.gpu
                       and (fault.stream is None
                            or op.stream == fault.stream)]
            for op in victims:
                remaining[op] = op.work + fault.timeout
                retries[op] = retries.get(op, 0) + 1
            if ob is not None:
                ob.record_instant(
                    "injected", CAT_FAULT, now,
                    track=f"sim/gpu{fault.gpu}/"
                          f"{fault.stream or 'any'}",
                    args={"t": fault.time, "gpu": fault.gpu,
                          "victims": [_op_name(v) for v in victims],
                          "timeout": fault.timeout})

    def next_fault_event() -> float | None:
        """Earliest future instant at which rates change or an op dies."""
        nonlocal boundary_idx
        while (boundary_idx < len(boundaries)
               and boundaries[boundary_idx] <= now + _EPS):
            boundary_idx += 1
        candidates = []
        if boundary_idx < len(boundaries):
            candidates.append(boundaries[boundary_idx])
        if failure_idx < len(failures):
            candidates.append(failures[failure_idx].time)
        return min(candidates) if candidates else None

    total = len(schedule.ops)
    while len(done) < total:
        while try_start_ops():
            pass
        if len(done) >= total:
            break  # zero-work tail ops may finish inside try_start_ops
        if plan:
            fire_due_failures()
        if not active:
            blocked = [op for op in schedule.ops
                       if op not in done and pending_deps[op]]
            detail = "; ".join(
                f"{_op_name(op)} <- unmet "
                f"[{', '.join(_op_name(d) for d in pending_deps[op])}]"
                for op in blocked)
            raise RuntimeError(
                f"deadlock: no runnable ops at t={now}; "
                f"blocked: {detail}")

        rates: dict[Op, float] = {}
        for op in active:
            others = [a.kind for a in active
                      if a is not op and a.gpu == op.gpu]
            rate = interference_rate(op.kind, others)
            if plan:
                rate *= plan.rate_scale(op.gpu, op.kind, now)
            rates[op] = rate

        dt = min(remaining[op] / rates[op] for op in active)
        if plan:
            event = next_fault_event()
            if event is not None and now + dt > event + _EPS:
                # Stop at the fault boundary: rates change there, so
                # the closed-form completion above is only valid up to
                # it.  No op completes in this sub-interval.
                dt = event - now
        now += dt
        finished = []
        for op in list(active):
            remaining[op] -= rates[op] * dt
            if remaining[op] <= _EPS:
                finished.append(op)
        for op in finished:
            complete(op, active.pop(op))

    result = SimResult(makespan=now, spans=spans, retries=dict(retries),
                       faults_injected=faults_injected,
                       faults_recovered=faults_recovered)
    if ob is not None:
        if faults_injected:
            ob.count("sim.faults_injected", faults_injected)
        result.record_trace(ob)
    return result
