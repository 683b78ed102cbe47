"""The one attachment between a step/batch loop and the observability
stack (``repro.obs.loop``).

``train_model``, ``serve_workload`` and ``run_scenario`` each wrap
their loop in one :class:`LoopTelemetry` and talk to nothing else:
``begin(step)`` opens an iteration, ``tick(step, kind, data, ...)``
closes it, ``event(...)`` records anything in between.  Behind those
three calls the attachment owns

* the **auto-run**: with ``REPRO_RUNS_DIR`` set and no run active it
  opens a :class:`~repro.obs.runs.recording_run`, whose exit is the
  run's one exit path — ``complete``, or ``failed`` (plus the
  exception type) when the loop raised;
* the **alert engine**: the default rule pack, fed every
  event the run emits through ``RunWriter.on_event`` (so faults
  emitted by other subsystems count too) and evaluated when the
  tick's closing event arrives — exactly what a fresh engine
  replaying the run's ``events.jsonl`` sees;
* the per-layer ``routing`` events, emitted *before* the closing
  ``step`` / ``serve_batch`` event; when a run is recording, each
  also carries that batch's counts from the lazily built
  :class:`~repro.obs.routing.RoutingRecorder`;
* the observer's ``routing.*`` gauges (one ``record_routing`` per
  layer — layers publish nothing themselves), counters and gauges,
  and the overhead ledger's per-iteration wall.

With no run, no observer and no ledger every method returns
after one attribute test, and :mod:`repro.obs.runs` /
:mod:`repro.obs.alerts` are imported only when a run is opened or
rules are built.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.obs import (
    CAT_HEALTH,
    get_ledger,
    get_observer,
    get_run,
    perf_ns,
    set_run,
)

if TYPE_CHECKING:
    from repro.obs.alerts import AlertEngine, AlertTransition
    from repro.obs.runs import RunWriter, recording_run

__all__ = ["LoopTelemetry"]


class LoopTelemetry:
    """Context manager publishing one loop's iterations (see module
    docstring).

    ``kind`` / ``seed`` / ``config`` / ``substrate`` describe the
    auto-run's manifest.  ``default_rules`` holds keyword arguments of
    :func:`repro.obs.alerts.default_rules`, whose pack an engine
    evaluates while a run is recording.
    """

    def __init__(self, kind: str, *, seed: int | None = None,
                 config: Mapping | None = None,
                 substrate: str = "functional",
                 default_rules: Mapping | None = None) -> None:
        self._manifest = dict(seed=seed, substrate=substrate,
                              config={"kind": kind, **(config or {})})
        self._default_rules = default_rules
        self.run: RunWriter | None = None
        self.engine: AlertEngine | None = None
        #: Firing transitions of this loop's engine, in tick order.
        self.fired: list[AlertTransition] = []
        self.active = False
        self._auto_run: recording_run | None = None
        self._ob = None
        self._ledger = None
        self._routing = None
        self._t0 = 0

    def __enter__(self) -> "LoopTelemetry":
        # Everything that can raise runs before the auto-run opens, so
        # a failed entry leaves no run installed.
        auto = get_run() is None and bool(os.environ.get("REPRO_RUNS_DIR"))
        defaults = (self._default_rules
                    if auto or get_run() is not None else None)
        if defaults is not None:
            from repro.obs import alerts
            self.engine = alerts.AlertEngine(
                alerts.default_rules(**defaults))
        if auto:
            from repro.obs import runs
            self._auto_run = runs.recording_run(**self._manifest)
            self._auto_run.__enter__()
        # An engine exists only beside a recording run.
        self.run = get_run()
        if self.engine is not None:
            self.run.on_event = self._observe
        self._ob = get_observer()
        self._ledger = get_ledger()
        self.active = not (self.run is None and self._ob is None
                           and self._ledger is None)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.engine is not None:
            self.run.on_event = None
        if self._auto_run is not None:
            self._auto_run.__exit__(exc_type, exc, tb)

    @property
    def run_id(self) -> str | None:
        return self.run.manifest.run_id if self.run is not None else None

    # -- the loop's three calls ----------------------------------------

    def begin(self, step: int) -> None:
        """Open iteration ``step`` (``-1``: the held-out evaluation),
        so events emitted without a step land under it."""
        if not self.active:
            return
        if self.run is not None:
            self.run.begin_step(step)
        if self._ledger is not None:
            self._t0 = perf_ns()

    def event(self, kind: str, data: Mapping,
              step: int | None = None) -> None:
        """Record one run event (default step: the open iteration)."""
        if not self.active:
            return
        if self.run is not None:
            self.run.emit(kind, step=step, data=data)

    def tick(self, step: int, kind: str,
             data: Mapping | Callable[[], Mapping], *,
             layers: Sequence = (),
             counts: Mapping[str, float] | None = None,
             gauges: Mapping[str, float] | None = None) -> None:
        """Close iteration ``step``: each MoE layer's ``routing`` event
        (with this batch's counts when a run records), then the
        ``kind`` event that ticks the alert engine; the observer's
        ``routing.*`` gauges, ``counts`` and ``gauges``; the ledger's
        iteration wall.
        ``data`` may be a callable, built only when something records
        it."""
        if not self.active:
            return
        if self.run is not None:
            self._routing_events(step, layers)
            self.event(kind, data() if callable(data) else data, step)
        if self._ob is not None:
            for layer in layers:
                if layer.last_routing_stats is not None:
                    self._ob.record_routing(layer.last_routing_stats)
            for name, amount in (counts or {}).items():
                self._ob.count(name, amount)
            for name, value in (gauges or {}).items():
                self._ob.gauge(name, value)
        if self._ledger is not None:
            self._ledger.observe_step(perf_ns() - self._t0)

    # -- run ownership -------------------------------------------------

    def summary(self, values: Mapping) -> None:
        """Merge keys into the run's manifest summary."""
        if self.run is not None:
            self.run.update_summary(values)

    def compact(self, from_step: int) -> None:
        """Drop steps ``>= from_step`` from an *owned* run before a
        restored trainer re-emits them; a caller-owned stream is never
        rewritten."""
        if self._auto_run is not None:
            from repro.obs import runs
            old = self.run
            old.close()
            self.run = self._auto_run.run = runs.RunWriter.resume(
                old.directory, from_step=from_step)
            self.run.on_event = old.on_event
            set_run(self.run)

    # -- internals -----------------------------------------------------

    def _routing_events(self, step: int, layers: Sequence) -> None:
        crits = [layer.last_routing_criteria for layer in layers]
        counts: Sequence[Mapping] = [{}] * len(crits)
        if crits and all(c is not None for c in crits):
            if self._routing is None:
                from repro.obs.routing import RoutingRecorder
                self._routing = RoutingRecorder(len(crits),
                                                crits[0].num_experts)
            counts = self._routing.observe_batch(crits)
        for index, layer in enumerate(layers):
            stats = layer.last_routing_stats
            if stats is not None:
                self.event("routing", {**stats.event_payload(index),
                                       **counts[index]}, step)

    def _observe(self, event: Mapping) -> None:
        """``RunWriter.on_event``: every emitted event reaches the
        engine."""
        if event["kind"] == "alert":
            return                      # the engine's own output
        registry = self._ob.registry if self._ob is not None else None
        for tr in self.engine.observe(event, run=self.run,
                                      registry=registry):
            if tr.state == "firing":
                self.fired.append(tr)
                if self._ob is not None:
                    self._ob.instant(tr.rule.name, CAT_HEALTH,
                                     args=tr.to_event_data())
