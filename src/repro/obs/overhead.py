"""Observability self-overhead ledger (``repro.obs.overhead``).

The paper's pitch for always-on adaptation only holds if the telemetry
driving it is close to free, so the observability stack accounts for
itself: a process-global :class:`OverheadLedger` accumulates the
nanoseconds spent *inside* instrumentation — trace recording, metrics
updates, run-event emit/flush, routing-recorder folds, and alert-rule
evaluation — attributed per subsystem, next to the wall time of the
steps/batches it rode on.  ``repro overhead`` runs a fully
instrumented training loop under the ledger and emits the
schema-versioned ``BENCH_obs_overhead.json`` whose headline
``overhead_fraction`` is gated by ``repro regress`` (committed
baseline pinned at the 5% acceptance bound), so instrumentation cost
can never silently regress.

Like the observer and the active run, the ledger is **off by default
and zero-cost when off**: its slot lives in :mod:`repro.obs`
(``get_ledger()``), so instrumented sites do one module-global
``is None`` check before touching the clock and never import this
module; only :class:`measuring_overhead` users load it.  The
measurement itself is honest about its own cost: every
``perf_counter_ns`` pair an instrumented site adds is *part of* the
instrumentation time it reports.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs import set_ledger

__all__ = [
    "SUBSYSTEMS",
    "OVERHEAD_ARTIFACT",
    "OVERHEAD_FRACTION_BOUND",
    "OverheadLedger",
    "measuring_overhead",
    "overhead_metrics",
]

#: Instrumentation subsystems the ledger attributes time to.
SUBSYSTEMS = ("trace", "metrics", "events", "routing", "alerts")

#: Artifact id of the gated bench record.
OVERHEAD_ARTIFACT = "obs_overhead"

#: Acceptance bound on the overhead fraction of step time.  The
#: committed baseline pins ``overhead_fraction`` at exactly this value
#: (tolerance 0, lower is better), mirroring the calibration gate's
#: pin-at-bound convention, so the regress gate fails iff a run
#: measures instrumentation above 5% of step wall time.
OVERHEAD_FRACTION_BOUND = 0.05


class OverheadLedger:
    """Per-subsystem nanosecond totals of instrumentation work.

    ``add(subsystem, ns)`` is the hot path (one dict update); call
    sites surround the instrumented work with ``perf_counter_ns``
    pairs only after a :func:`repro.obs.get_ledger` ``is not None``
    check.
    ``observe_step(wall_ns)`` accumulates the denominator: the wall
    time of each training step or serving batch the overhead rode on.
    """

    __slots__ = ("totals", "counts", "step_ns", "steps")

    def __init__(self) -> None:
        self.totals: dict[str, int] = {s: 0 for s in SUBSYSTEMS}
        self.counts: dict[str, int] = {s: 0 for s in SUBSYSTEMS}
        self.step_ns = 0
        self.steps = 0

    def add(self, subsystem: str, ns: int) -> None:
        self.totals[subsystem] += ns
        self.counts[subsystem] += 1

    def observe_step(self, wall_ns: int) -> None:
        self.step_ns += int(wall_ns)
        self.steps += 1

    @property
    def overhead_ns(self) -> int:
        return sum(self.totals.values())

    def fraction(self) -> float:
        """Instrumentation share of accumulated step wall time."""
        if self.step_ns <= 0:
            return 0.0
        return self.overhead_ns / self.step_ns

    def publish(self, ob) -> None:
        """Expose the ledger as ``obs.overhead.*`` gauges on an
        observer (a recorded run keeps them in ``metrics.json``)."""
        ob.gauge("obs.overhead.fraction", self.fraction())
        ob.gauge("obs.overhead.total_ms", self.overhead_ns / 1e6)
        ob.gauge("obs.overhead.step_ms", self.step_ns / 1e6)
        for sub in SUBSYSTEMS:
            ob.gauge(f"obs.overhead.{sub}_ms", self.totals[sub] / 1e6)

    def render(self) -> str:
        lines = ["== obs self-overhead =="]
        lines.append(
            f"  {self.steps} step(s), "
            f"{self.step_ns / 1e6:.3f} ms step wall, "
            f"{self.overhead_ns / 1e6:.3f} ms instrumentation "
            f"({self.fraction():.2%})")
        for sub in SUBSYSTEMS:
            lines.append(
                f"  {sub:10s} {self.totals[sub] / 1e6:10.3f} ms "
                f"in {self.counts[sub]} call(s)")
        return "\n".join(lines)


class measuring_overhead:
    """Context manager: install a fresh ledger, restore on exit.

    ::

        with measuring_overhead() as led:
            ...instrumented run...
        print(led.render())
    """

    def __init__(self) -> None:
        self.ledger = OverheadLedger()
        self._previous: OverheadLedger | None = None

    def __enter__(self) -> OverheadLedger:
        self._previous = set_ledger(self.ledger)
        return self.ledger

    def __exit__(self, *exc: object) -> None:
        set_ledger(self._previous)


# ----------------------------------------------------------------------
# BENCH_obs_overhead.json
# ----------------------------------------------------------------------

def overhead_metrics(ledger: OverheadLedger,
                     event_counts: Mapping[str, int] | None = None
                     ) -> list:
    """The ledger as bench metrics for ``BENCH_obs_overhead.json``.

    ``overhead_fraction`` is the gated headline (lower is better,
    tolerance 0 against the pinned 5% baseline).  Deterministic event
    counts gate exactly; the per-subsystem millisecond splits are
    wall-clock and ride along ungated (``kind="measured"``).
    """
    from repro.bench.report import Metric

    metrics = [
        Metric("overhead_fraction", ledger.fraction(), "fraction",
               kind="model", higher_is_better=False, tolerance=0.0),
        Metric("steps", float(ledger.steps), "count", kind="model",
               tolerance=0.0),
    ]
    for name, count in sorted((event_counts or {}).items()):
        metrics.append(Metric(f"events_{name}", float(count), "count",
                              kind="model", tolerance=0.0))
    metrics.append(Metric("overhead_ms", ledger.overhead_ns / 1e6,
                          "ms", kind="measured",
                          higher_is_better=False, tolerance=10.0))
    for sub in SUBSYSTEMS:
        metrics.append(Metric(f"{sub}_ms", ledger.totals[sub] / 1e6,
                              "ms", kind="measured",
                              higher_is_better=False, tolerance=10.0))
    return metrics
