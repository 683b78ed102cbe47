"""repro.obs — unified step-level instrumentation for both substrates.

The paper's headline artifacts are measurements of Tutel's own runtime
(Figure 1's capacity-factor dynamics, Figure 5's strategy distribution,
Figures 22–24's time breakdowns), so the reproduction carries a shared
observability layer instead of per-bench ad-hoc timing:

* :class:`~repro.obs.registry.MetricsRegistry` — process-wide counters
  / gauges / histogram timers;
* :class:`~repro.obs.trace.TraceRecorder` — typed trace events with
  Chrome-trace (``chrome://tracing`` / Perfetto) export and import;
* :class:`Observer` — binds the two, adds the ``span(...)`` context
  manager, and holds the latest routing diagnostics (drop fraction,
  imbalance, needed capacity factor) as three ``routing.*`` gauges.  It keeps no history: the Figure 1
  series is ``TrainResult.capacity_traces`` or a run's ``routing``
  events, both published by :class:`repro.obs.loop.LoopTelemetry`.

Instrumentation is **off by default, zero-cost when off, and not
imported when off**.  This module is the one home of the four
process-wide slots, each a module global (``None`` = off) read by one
getter; the module behind a slot is imported only by the code that
turns the feature on:

* observer — :func:`get_observer` / :func:`span`, installed by
  :func:`enable` (an :class:`Observer` loads :mod:`repro.obs.registry`,
  and :mod:`repro.obs.trace` only with ``trace=True``);
* profiler — :func:`get_profiler`, installed by
  :func:`repro.obs.profiler.profiling`;
* active run — :func:`get_run`, installed by
  :class:`repro.obs.runs.recording_run` (or by ``REPRO_RUNS_DIR``
  through :class:`repro.obs.loop.LoopTelemetry`);
* overhead ledger — :func:`get_ledger`, installed by
  :class:`repro.obs.overhead.measuring_overhead`.

Hot call sites do one module-global check (``span()`` and ``stage()``
return the shared :data:`NULL_SPAN` singleton, whose enter/exit do
nothing), so importing the MoE layer loads this module and no other
instrumentation (the trainer adds only :mod:`repro.obs.loop`).

:func:`stage` is the one clock of an MoE layer's four
:data:`MOE_STAGES`: it feeds both the observer (a ``moe.<stage>``
histogram and trace span) and the profiler (the stage its ops are
attributed to).

Enable explicitly::

    from repro import obs

    ob = obs.enable()                  # metrics + trace recording
    ...run a training step / bench...
    ob.recorder.dump_chrome_trace("trace.json")
    print(ob.registry.snapshot())      # counters, gauges, histograms
    obs.disable()

or set ``REPRO_TRACE=/path/trace.json`` around any bench (see
``benchmarks/conftest.py`` and :func:`repro.cli.run_bench`).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.obs.overhead import OverheadLedger
    from repro.obs.profiler import Profiler
    from repro.obs.runs import RunWriter
    from repro.obs.trace import TraceRecorder

__all__ = [
    "Observer",
    "NULL_SPAN",
    "get_observer",
    "set_observer",
    "enable",
    "disable",
    "span",
    "instant",
    "get_profiler",
    "set_profiler",
    "stage",
    "MOE_STAGES",
    "get_run",
    "set_run",
    "get_ledger",
    "set_ledger",
    "perf_ns",
    "CAT_MOE",
    "CAT_TRAIN",
    "CAT_COLLECTIVE",
    "CAT_PIPELINE",
    "CAT_SIM",
    "CAT_CRITICAL",
    "CAT_SERVE",
    "CAT_BENCH",
    "CAT_FAULT",
    "CAT_CKPT",
    "CAT_HEALTH",
    "CAT_PROF",
]

# Event categories (the Chrome-trace ``cat`` field).
CAT_MOE = "moe"                # the MOE_STAGES spans
CAT_TRAIN = "train"            # per-step training spans
CAT_COLLECTIVE = "collective"  # all-to-all / allreduce family
CAT_PIPELINE = "pipeline"      # strategy-search exploration events
CAT_SIM = "sim"                # simulated-clock op spans
CAT_CRITICAL = "critical"      # simulated ops on the critical path
CAT_BENCH = "bench"            # explicit benchmark timers
CAT_FAULT = "fault"            # injected faults and recoveries
CAT_CKPT = "ckpt"              # checkpoint save/restore markers
CAT_HEALTH = "health"          # online health-detector alerts
CAT_PROF = "prof"              # op-level profiler spans and counters
CAT_SERVE = "serve"            # online-serving requests and batches

#: The paper's Figure 23 cost decomposition of one MoE layer, in the
#: order a forward runs them: the names :func:`stage` times.
MOE_STAGES = ("gate", "dispatch", "expert_ffn", "combine")


class _NullSpan:
    """Shared no-op context manager returned when observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """A live timing span: on exit, the observer's ``<cat>.<name>``
    histogram observation and trace event.  A :func:`stage` span also
    holds the profiler: while open it is the profiler's current stage,
    and entry moves the profiler's cursor, so no op wall reaches back
    into the previous stage."""

    __slots__ = ("_ob", "_prof", "name", "cat", "track", "start")

    def __init__(self, ob: "Observer | None", name: str, cat: str,
                 track: str = "main",
                 prof: "Profiler | None" = None) -> None:
        self._ob = ob
        self._prof = prof
        self.name = name
        self.cat = cat
        self.track = track
        self.start = 0.0

    def __enter__(self) -> "_Span":
        prof = self._prof
        if prof is not None:
            prof.stages.append(self.name)
            prof.mark()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        if self._prof is not None:
            self._prof.stages.pop()
        ob = self._ob
        if ob is not None:
            ob.record_span(self.name, self.cat, self.start - ob._t0,
                           end - self.start, self.track)
        return False


class Observer:
    """A fresh metrics registry plus (optionally) a trace recorder.

    The clock is :func:`time.perf_counter`; all wall-clock spans are
    re-based to the observer's creation time so traces start near zero
    and line up with simulated-clock tracks.
    """

    def __init__(self, recorder: TraceRecorder | None = None) -> None:
        from repro.obs import registry as _registry
        self.registry = _registry.MetricsRegistry()
        self.recorder = recorder
        self._t0 = time.perf_counter()

    # -- clock ---------------------------------------------------------

    def clock(self) -> float:
        """Seconds on the observer timeline (0 at observer creation)."""
        return time.perf_counter() - self._t0

    # -- spans ---------------------------------------------------------

    def record_span(self, name: str, cat: str, start: float, dur: float,
                    track: str = "main", args: dict | None = None) -> None:
        """Record a span with explicit timestamps (simulated clocks)."""
        led = _ledger
        t0 = perf_ns() if led is not None else 0
        self.registry.histogram(f"{cat}.{name}").observe(dur)
        t1 = perf_ns() if led is not None else 0
        if self.recorder is not None:
            self.recorder.span(name, cat, start, dur, track=track,
                               args=args)
        if led is not None:
            led.add("metrics", t1 - t0)
            if self.recorder is not None:
                led.add("trace", perf_ns() - t1)

    def instant(self, name: str, cat: str = CAT_BENCH,
                track: str = "main", args: dict | None = None) -> None:
        """Record an instant marker at the current clock reading."""
        self.record_instant(name, cat, self.clock(), track=track,
                            args=args)

    def record_instant(self, name: str, cat: str, ts: float,
                       track: str = "main",
                       args: dict | None = None) -> None:
        """Record an instant marker with an explicit timestamp
        (simulated clocks — the fault-injection path)."""
        self.registry.counter(f"{cat}.{name}").inc()
        if self.recorder is not None:
            self.recorder.instant(name, cat, ts, track=track, args=args)

    # -- scalar conveniences -------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        led = _ledger
        t0 = perf_ns() if led is not None else 0
        self.registry.counter(name).inc(amount)
        if led is not None:
            led.add("metrics", perf_ns() - t0)

    def gauge(self, name: str, value: float) -> None:
        led = _ledger
        t0 = perf_ns() if led is not None else 0
        self.registry.gauge(name).set(value)
        if led is not None:
            led.add("metrics", perf_ns() - t0)

    def record_routing(self, stats: Any) -> None:
        """Set the three ``routing.*`` gauges from one layer's routing
        diagnostics.

        ``stats`` is duck-typed against
        :class:`repro.moe.metrics.RoutingStats` (``num_tokens``,
        ``num_experts``, ``top_k``, ``dropped_fraction``,
        ``load_imbalance``, ``needed_capacity``).
        """
        self.gauge("routing.dropped_fraction", stats.dropped_fraction)
        self.gauge("routing.load_imbalance", stats.load_imbalance)
        tokens = stats.num_tokens * stats.top_k
        if tokens > 0:
            self.gauge("routing.needed_capacity_factor",
                       stats.needed_capacity * stats.num_experts / tokens)


# ----------------------------------------------------------------------
# Process-wide slots (None = off, the default)
# ----------------------------------------------------------------------

_observer: Observer | None = None
_profiler: Profiler | None = None
_run: RunWriter | None = None
_ledger: OverheadLedger | None = None

#: The overhead ledger's clock, for call sites that time themselves.
perf_ns = time.perf_counter_ns


def get_observer() -> Observer | None:
    return _observer


def set_observer(ob: Observer | None) -> Observer | None:
    """Install (or clear, with None) the process-wide observer."""
    global _observer
    previous, _observer = _observer, ob
    return previous


def enable(trace: bool = True) -> Observer:
    """Install and return a fresh process-wide observer."""
    recorder = None
    if trace:
        from repro.obs import trace as _trace
        recorder = _trace.TraceRecorder()
    ob = Observer(recorder=recorder)
    set_observer(ob)
    return ob


def disable() -> None:
    set_observer(None)


def get_profiler() -> Profiler | None:
    """The op-level profiler :func:`repro.obs.profiler.profiling`
    installed, or None; the ``Tensor`` hooks call this once per op."""
    return _profiler


def set_profiler(prof: Profiler | None) -> Profiler | None:
    """Install (or clear, with None) the process-wide profiler."""
    global _profiler
    previous, _profiler = _profiler, prof
    return previous


def get_run() -> RunWriter | None:
    """The run :class:`repro.obs.runs.recording_run` installed, or None."""
    return _run


def set_run(run: RunWriter | None) -> RunWriter | None:
    """Install (or clear, with None) the process-wide active run."""
    global _run
    previous, _run = _run, run
    return previous


def get_ledger() -> OverheadLedger | None:
    """The ledger :class:`repro.obs.overhead.measuring_overhead`
    installed, or None."""
    return _ledger


def set_ledger(ledger: OverheadLedger | None) -> OverheadLedger | None:
    """Install (or clear, with None) the process-wide overhead ledger."""
    global _ledger
    previous, _ledger = _ledger, ledger
    return previous


def span(name: str, cat: str = CAT_BENCH,
         track: str = "main") -> _Span | _NullSpan:
    """Hot-path span helper: one ``is None`` check when disabled.

    Call sites keep no per-call kwargs so the disabled path allocates
    nothing and returns the shared :data:`NULL_SPAN` singleton.
    """
    ob = _observer
    if ob is None:
        return NULL_SPAN
    return _Span(ob, name, cat, track)


def stage(name: str) -> _Span | _NullSpan:
    """Hot-path clock of one of :data:`MOE_STAGES`: the shared
    :data:`NULL_SPAN` when neither an observer nor a profiler is
    installed."""
    ob, prof = _observer, _profiler
    if ob is None and prof is None:
        return NULL_SPAN
    return _Span(ob, name, CAT_MOE, "main", prof)


def instant(name: str, cat: str = CAT_BENCH, track: str = "main",
            args: dict | None = None) -> None:
    """Record an instant marker on the process-wide observer, if any."""
    ob = _observer
    if ob is not None:
        ob.instant(name, cat, track=track, args=args)

