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
  manager / ``@timed`` decorator, and holds the latest routing
  diagnostics (drop fraction, imbalance, needed capacity factor) as
  three ``routing.*`` gauges.  It keeps no history: the Figure 1
  series is ``TrainResult.capacity_traces`` or a run's ``routing``
  events, both published by :class:`repro.obs.loop.LoopTelemetry`.

Instrumentation is **off by default and zero-cost when off**: hot call
sites do one module-global ``is None`` check (``span()`` returns the
shared :data:`NULL_SPAN` singleton, whose enter/exit do nothing).
Enable explicitly::

    from repro import obs

    ob = obs.enable()                  # metrics + trace recording
    ...run a training step / bench...
    ob.recorder.dump_chrome_trace("trace.json")
    print(ob.registry.render())
    obs.disable()

or set ``REPRO_TRACE=/path/trace.json`` around any bench (see
``benchmarks/conftest.py`` and ``repro obs --help``).
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

from repro.obs.overhead import get_ledger as _overhead_ledger
from repro.obs.overhead import perf_ns as _perf_ns
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    CAT_BENCH,
    CAT_CKPT,
    CAT_COLLECTIVE,
    CAT_CRITICAL,
    CAT_FAULT,
    CAT_HEALTH,
    CAT_MOE,
    CAT_PIPELINE,
    CAT_PROF,
    CAT_SERVE,
    CAT_SIM,
    CAT_TRAIN,
    TraceEvent,
    TraceRecorder,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceEvent",
    "TraceRecorder",
    "Observer",
    "NULL_SPAN",
    "get_observer",
    "set_observer",
    "enable",
    "disable",
    "span",
    "instant",
    "timed",
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


class _NullSpan:
    """Shared no-op context manager returned when observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """A live timing span: histogram observation + trace event on exit."""

    __slots__ = ("_ob", "name", "cat", "track", "args", "start")

    def __init__(self, ob: "Observer", name: str, cat: str, track: str,
                 args: dict | None) -> None:
        self._ob = ob
        self.name = name
        self.cat = cat
        self.track = track
        self.args = args
        self.start = 0.0

    def __enter__(self) -> "_Span":
        self.start = self._ob.clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._ob._finish_span(self)
        return False


class Observer:
    """A metrics registry plus (optionally) a trace recorder.

    ``clock`` defaults to :func:`time.perf_counter`; all wall-clock
    spans are re-based to the observer's creation time so traces start
    near zero and line up with simulated-clock tracks.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 recorder: TraceRecorder | None = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = recorder
        self._clock = clock
        self._t0 = clock()

    # -- clock ---------------------------------------------------------

    def clock(self) -> float:
        """Seconds on the observer timeline (0 at observer creation)."""
        return self._clock() - self._t0

    # -- spans ---------------------------------------------------------

    def span(self, name: str, cat: str = CAT_BENCH, track: str = "main",
             args: dict | None = None) -> _Span:
        return _Span(self, name, cat, track, args)

    def _finish_span(self, sp: _Span) -> None:
        self.record_span(sp.name, sp.cat, sp.start,
                         self.clock() - sp.start, track=sp.track,
                         args=sp.args)

    def record_span(self, name: str, cat: str, start: float, dur: float,
                    track: str = "main", args: dict | None = None) -> None:
        """Record a span with explicit timestamps (simulated clocks)."""
        led = _overhead_ledger()
        t0 = _perf_ns() if led is not None else 0
        self.registry.histogram(f"{cat}.{name}").observe(dur)
        t1 = _perf_ns() if led is not None else 0
        if self.recorder is not None:
            self.recorder.span(name, cat, start, dur, track=track,
                               args=args)
        if led is not None:
            led.add("metrics", t1 - t0)
            if self.recorder is not None:
                led.add("trace", _perf_ns() - t1)

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
        led = _overhead_ledger()
        t0 = _perf_ns() if led is not None else 0
        self.registry.counter(name).inc(amount)
        if led is not None:
            led.add("metrics", _perf_ns() - t0)

    def gauge(self, name: str, value: float) -> None:
        led = _overhead_ledger()
        t0 = _perf_ns() if led is not None else 0
        self.registry.gauge(name).set(value)
        if led is not None:
            led.add("metrics", _perf_ns() - t0)

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
# Process-wide observer (None = disabled, the default)
# ----------------------------------------------------------------------

_observer: Observer | None = None


def get_observer() -> Observer | None:
    return _observer


def set_observer(ob: Observer | None) -> Observer | None:
    """Install (or clear, with None) the process-wide observer."""
    global _observer
    previous = _observer
    _observer = ob
    return previous


def enable(trace: bool = True, max_events: int = 1_000_000) -> Observer:
    """Install and return a fresh process-wide observer."""
    recorder = TraceRecorder(max_events=max_events) if trace else None
    ob = Observer(recorder=recorder)
    set_observer(ob)
    return ob


def disable() -> None:
    set_observer(None)


def span(name: str, cat: str = CAT_BENCH,
         track: str = "main") -> _Span | _NullSpan:
    """Hot-path span helper: one ``is None`` check when disabled.

    Call sites keep no per-call kwargs so the disabled path allocates
    nothing and returns the shared :data:`NULL_SPAN` singleton.
    """
    ob = _observer
    if ob is None:
        return NULL_SPAN
    return _Span(ob, name, cat, track, None)


def instant(name: str, cat: str = CAT_BENCH, track: str = "main",
            args: dict | None = None) -> None:
    """Record an instant marker on the process-wide observer, if any."""
    ob = _observer
    if ob is not None:
        ob.instant(name, cat, track=track, args=args)


def timed(name: str | None = None,
          cat: str = CAT_BENCH) -> Callable[[Callable], Callable]:
    """Decorator: time every call of ``fn`` when observability is on.

    The observer is looked up at call time, so decorated functions stay
    no-ops until :func:`enable` runs.
    """
    def deco(fn: Callable) -> Callable:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            ob = _observer
            if ob is None:
                return fn(*a, **kw)
            with ob.span(label, cat):
                return fn(*a, **kw)

        return wrapper

    return deco
