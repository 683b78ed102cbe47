"""Declarative alert rules over live run telemetry (``repro.obs.alerts``).

Alerting for the run registry, and the repo's only detector bank: an
:class:`AlertEngine` holds an ordered list of :class:`AlertRule`
(threshold or EWMA z-score expressions over named metric samples,
holds, severity, hysteresis on resolve) and is evaluated on a
**deterministic tick** — the training step or serving batch id — never
the wall clock, so the same run and rules always produce the identical
alert event sequence.  A metric sampled per layer or per (layer,
expert) is a set of *labeled series*; a rule keeps one state per
series, so layers and experts fire, hold and resolve independently and
each transition names its series.

Samples come from **one fold**: :func:`event_samples` turns a run
event into samples and :meth:`AlertEngine.observe` folds a stream of
them, evaluating when a ``step`` / ``step_skipped`` / ``serve_batch``
event closes the tick — so the in-process engine (fed by
:class:`repro.obs.loop.LoopTelemetry` as events are emitted) and a
fresh engine replaying a recorded ``events.jsonl`` see the same
samples at the same ticks.  ``observe`` also counts outstanding faults
(``fault`` / ``recovery`` events from *any* emitter), which feeds the
``recovery_overdue`` rule no single subsystem could evaluate alone.

Each fire/resolve transition lands in two places:

* the run registry, as a ``kind="alert"`` event — the single alert
  schema: ``kind`` / ``alertname`` / ``severity`` / ``state`` /
  ``value`` / ``threshold`` / ``message`` plus the series labels
  (``layer``, ``expert``);
* the metrics registry, as the ``ALERTS{alertname=...,severity=...}``
  labeled gauge family (1 while any series of the rule fires).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.obs import get_ledger, perf_ns

__all__ = [
    "ALERTS_FAMILY",
    "TICK_KINDS",
    "AlertRule",
    "AlertTransition",
    "AlertEngine",
    "EwmaDetector",
    "default_rules",
    "event_samples",
    "labeled_name",
]

#: Labeled gauge family name mirroring firing state
#: (``ALERTS{alertname="...",severity="..."} 1``).
ALERTS_FAMILY = "ALERTS"

#: Event kinds that close a tick: the loop emits exactly one of these
#: per iteration, after that iteration's ``routing`` events.
TICK_KINDS = frozenset({"step", "step_skipped", "serve_batch"})

#: One series' identity: ``(("layer", 0), ("expert", 3))``; ``()`` for
#: a metric sampled once per tick.
Labels = tuple

_OPS = ("<", "<=", ">", ">=")
_KINDS = ("threshold", "ewma_z")


def labeled_name(family: str, labels: "dict[str, str]") -> str:
    """A registry instrument name carrying a label set.

    The flat :class:`MetricsRegistry` has no native label support, so
    labeled families (``ALERTS{alertname=...,severity=...}``) are
    encoded in the instrument *name*: ``family{key="escaped value"}``
    with keys sorted for determinism.  The engine names its firing-state
    gauges this way, so a run's ``metrics.json`` keys them as
    ``ALERTS{alertname="...",severity="..."}``.
    """
    if not labels:
        return family
    body = ",".join(
        f'{key}="{_escape_label_value(str(labels[key]))}"'
        for key in sorted(labels))
    return f"{family}{{{body}}}"


def _escape_label_value(text: str) -> str:
    """Label-value escaping: backslash, double-quote, line feed."""
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _cmp(value: float, op: str, threshold: float) -> bool:
    if op == "<":
        return value < threshold
    if op == "<=":
        return value <= threshold
    if op == ">":
        return value > threshold
    return value >= threshold


class EwmaDetector:
    """EWMA mean/variance tracker scoring each value pre-update.

    Mean ``m ← m + α·(x − m)`` and variance ``v ← (1−α)·(v + α·d²)``
    with ``d = x − m_prev``; the score of a new ``x`` is
    ``z = (x − m)/√v`` against the moments *before* the update, so a
    spike cannot dilute its own score.  No score until ``warmup``
    observations, and none at zero variance.
    """

    __slots__ = ("alpha", "warmup", "count", "mean", "var")

    def __init__(self, alpha: float, warmup: int) -> None:
        self.alpha = alpha
        self.warmup = warmup
        self.count = 0
        self.mean = 0.0
        self.var = 0.0

    def update(self, value: float) -> float:
        """Fold ``value`` in; return its z-score against the moments
        *before* the update (0.0 during warmup or at zero variance)."""
        value = float(value)
        if self.count == 0:
            z = 0.0
            self.mean = value
        else:
            sd = math.sqrt(self.var)
            z = ((value - self.mean) / sd
                 if sd > 1e-12 and self.count >= self.warmup else 0.0)
            delta = value - self.mean
            self.mean += self.alpha * delta
            self.var = (1.0 - self.alpha) * (
                self.var + self.alpha * delta * delta)
        self.count += 1
        return z


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule.

    ``kind="threshold"`` compares the sample against ``threshold``
    with ``op``; ``kind="ewma_z"`` compares the sample's
    :class:`EwmaDetector` z-score (``alpha`` / ``warmup``; non-finite
    samples are ignored).  A tick without a sample leaves a series'
    state as it is.

    ``for_ticks`` is the Prometheus ``for:`` hold: the condition must
    *stay* bad for that many ticks after the first bad one, so a rule
    whose condition turns bad at tick ``t`` fires at ``t + for_ticks``
    — on the ``for_ticks + 1``-th consecutive bad tick (``0`` fires
    immediately).  ``resolve_threshold`` adds hysteresis: a firing
    rule resolves only once the value crosses back past it (not
    merely past ``threshold``), so a metric jittering at the bound
    cannot flap the alert.
    """

    name: str
    metric: str
    op: str = ">"
    threshold: float = 0.0
    for_ticks: int = 0
    severity: str = "warn"
    kind: str = "threshold"
    resolve_threshold: float | None = None
    message: str = ""
    alpha: float = 0.15
    warmup: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alert rule name must be non-empty")
        if self.op not in _OPS:
            raise ValueError(
                f"rule {self.name!r}: op must be one of {_OPS}, "
                f"got {self.op!r}")
        if self.kind not in _KINDS:
            raise ValueError(
                f"rule {self.name!r}: kind must be one of {_KINDS}, "
                f"got {self.kind!r}")
        if self.for_ticks < 0:
            raise ValueError(
                f"rule {self.name!r}: for_ticks must be >= 0, "
                f"got {self.for_ticks}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(
                f"rule {self.name!r}: alpha must be in (0, 1], "
                f"got {self.alpha}")

    @property
    def gauge_name(self) -> str:
        return labeled_name(ALERTS_FAMILY, {"alertname": self.name,
                                            "severity": self.severity})

    def _cleared(self, value: float) -> bool:
        """Should a firing rule resolve at ``value``?

        Without ``resolve_threshold`` the rule resolves as soon as its
        condition stops holding; with one, the value must cross
        strictly past the resolve bound (hysteresis).
        """
        if self.resolve_threshold is None:
            return not _cmp(value, self.op, self.threshold)
        if self.op in ("<", "<="):
            return value > self.resolve_threshold
        return value < self.resolve_threshold


@dataclass(frozen=True)
class AlertTransition:
    """One fire or resolve decision of one rule, for one series, at
    one tick.  ``value`` is the sample the rule compared; for
    ``ewma_z``, ``score`` carries the z-score it compared."""

    tick: int
    rule: AlertRule
    state: str                 # "firing" | "resolved"
    value: float | None
    labels: Labels = ()
    score: float | None = None

    def to_event_data(self) -> dict:
        rule = self.rule
        message = rule.message or (f"{rule.metric} {rule.op} "
                                   f"{rule.threshold:g}")
        if self.score is not None:
            message += f" (z={self.score:.1f})"
        return {
            "kind": rule.name,
            "alertname": rule.name,
            "severity": rule.severity,
            "state": self.state,
            "value": self.value,
            "threshold": rule.threshold,
            **dict(self.labels),
            "message": f"{message} [{self.state}]",
        }


class _SeriesState:
    __slots__ = ("pending_since", "firing", "ewma")

    def __init__(self, rule: AlertRule) -> None:
        self.pending_since: int | None = None
        self.firing = False
        self.ewma = (EwmaDetector(rule.alpha, rule.warmup)
                     if rule.kind == "ewma_z" else None)


class AlertEngine:
    """Evaluates an ordered rule list on deterministic ticks.

    ``evaluate(tick, samples)`` walks the rules in declaration order
    and, within a rule, the series of its metric in sample order
    (layer, then expert), and returns the transitions; pass ``run=``
    and/or ``registry=`` to also emit alert events and mirror the
    ``ALERTS`` gauge family.  A sample is either a number or a
    ``{labels: number}`` mapping of labeled series.

    ``observe(event)`` is the stream entry point: it tracks
    outstanding faults (``fault`` raises the count, ``recovery``
    lowers it — surfaced to rules as the ``faults.outstanding``
    sample), folds the event's :func:`event_samples` into the pending
    tick, and evaluates when the event is one of :data:`TICK_KINDS`.
    """

    def __init__(self, rules: Sequence[AlertRule]) -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate alert rule names in {names}")
        self.rules = list(rules)
        self._states: list[dict[Labels, _SeriesState]] = [
            {} for _ in self.rules]
        self._pending: dict[str, dict[Labels, float]] = {}
        self.outstanding_faults = 0
        self.transitions: list[AlertTransition] = []

    # -- the event stream ----------------------------------------------

    def stream_hook(self, event: Mapping) -> None:
        """Fault tracking alone (``observe`` includes it)."""
        kind = event.get("kind")
        if kind == "fault":
            self.outstanding_faults += 1
        elif kind == "recovery":
            self.outstanding_faults = max(
                0, self.outstanding_faults - 1)

    def observe(self, event: Mapping, run=None,
                registry=None) -> list[AlertTransition]:
        """Fold one run event; evaluate if it closes a tick."""
        led = get_ledger()
        t0 = perf_ns() if led is not None else 0
        self.stream_hook(event)
        for name, series in event_samples(event).items():
            self._pending.setdefault(name, {}).update(series)
        if led is not None:
            led.add("alerts", perf_ns() - t0)
        if event.get("kind") not in TICK_KINDS:
            return []
        samples, self._pending = self._pending, {}
        return self.evaluate(int(event.get("step") or 0), samples,
                             run=run, registry=registry)

    # -- evaluation ----------------------------------------------------

    def firing(self) -> list[str]:
        """Names of the rules with a firing series, in rule order."""
        return [r.name for r, states in zip(self.rules, self._states)
                if any(s.firing for s in states.values())]

    def evaluate(self, tick: int, samples: Mapping,
                 run=None, registry=None) -> list[AlertTransition]:
        """One deterministic evaluation pass; returns transitions."""
        led = get_ledger()
        t0 = perf_ns() if led is not None else 0
        samples = {"faults.outstanding": float(self.outstanding_faults),
                   **samples}
        out: list[AlertTransition] = []
        for rule, states in zip(self.rules, self._states):
            series = samples.get(rule.metric, {})
            if not isinstance(series, Mapping):
                series = {(): series}
            for labels, value in series.items():
                state = states.get(labels)
                if state is None:
                    state = states[labels] = _SeriesState(rule)
                self._step(rule, state, tick, labels, value, out)
        self.transitions.extend(out)
        if led is not None:
            led.add("alerts", perf_ns() - t0)
        firing = self.firing() if out and registry is not None else ()
        for tr in out:
            if registry is not None:
                # One gauge per rule: 1 while any of its series fires.
                registry.gauge(tr.rule.gauge_name).set(
                    1.0 if tr.rule.name in firing else 0.0)
                if tr.state == "firing":
                    registry.counter("alerts.fired").inc()
            if run is not None:
                run.emit("alert", step=tick, data=tr.to_event_data())
        return out

    @staticmethod
    def _step(rule: AlertRule, state: _SeriesState, tick: int,
              labels: Labels, value: float,
              out: list[AlertTransition]) -> None:
        observed = value
        score = None
        if rule.kind == "ewma_z":
            if not math.isfinite(value):
                return
            observed = score = state.ewma.update(value)
        if state.firing:
            if rule._cleared(observed):
                state.firing = False
                state.pending_since = None
                out.append(AlertTransition(tick, rule, "resolved",
                                           value, labels, score))
        elif _cmp(observed, rule.op, rule.threshold):
            if state.pending_since is None:
                state.pending_since = tick
            if tick - state.pending_since >= rule.for_ticks:
                state.firing = True
                out.append(AlertTransition(tick, rule, "firing",
                                           value, labels, score))
        else:
            state.pending_since = None


# ----------------------------------------------------------------------
# The default rule pack
# ----------------------------------------------------------------------

#: Thresholds of the default pack: normalized routing entropy floor,
#: the share of its uniform load under which an expert reads as dead,
#: the token drop rate that is a capacity alarm, and the ticks a fault
#: may stay unrecovered.
ENTROPY_FLOOR = 0.5
DEAD_EXPERT_SHARE = 0.1
DROP_RATE = 0.3
RECOVERY_DEADLINE_TICKS = 5


def default_rules(p99_ms: float | None = None,
                  min_goodput_rps: float | None = None
                  ) -> list[AlertRule]:
    """Serving SLO + routing health + resilience rules.

    The serving rules appear only when the caller supplies the
    workload's SLO bounds (``p99_ms`` / ``min_goodput_rps``); the
    routing and resilience rules always apply.  Routing rules hold one
    state per layer (``dead_expert``: per layer and expert).
    Thresholds: normalized entropy floor 0.5 held three ticks; a
    "dead" expert is one that has drawn under 10% of its uniform share
    on six consecutive ticks (``for_ticks=5``: it fires five ticks
    after the first starved one); drops past 30% are a capacity alarm;
    entropy / Gini / gradient-norm drift are EWMA z-scores (4, 4 and
    6 sigma, after an 8-sample warm-up).
    """
    rules: list[AlertRule] = []
    if p99_ms is not None:
        rules.append(AlertRule(
            name="serving_p99_high", metric="serve.model_p99_ms",
            op=">", threshold=p99_ms, for_ticks=2,
            severity="critical", resolve_threshold=0.9 * p99_ms,
            message=f"modeled p99 latency above SLO {p99_ms:g} ms"))
    if min_goodput_rps is not None:
        rules.append(AlertRule(
            name="serving_goodput_low", metric="serve.goodput_rps",
            op="<", threshold=min_goodput_rps, for_ticks=2,
            severity="warn",
            resolve_threshold=1.1 * min_goodput_rps,
            message=f"rolling goodput below SLO "
                    f"{min_goodput_rps:g} req/s"))
    rules.extend([
        AlertRule(
            name="routing_entropy_floor", metric="routing.entropy",
            op="<", threshold=ENTROPY_FLOOR, for_ticks=3,
            severity="warn",
            resolve_threshold=min(1.0, ENTROPY_FLOOR + 0.05),
            message=f"routing entropy below {ENTROPY_FLOOR:g} — "
                    "gate collapsing"),
        AlertRule(
            name="entropy_drift", metric="routing.entropy",
            kind="ewma_z", op="<=", threshold=-4.0,
            message="routing entropy dropping against its EWMA"),
        AlertRule(
            name="imbalance_drift", metric="routing.gini",
            kind="ewma_z", op=">=", threshold=4.0,
            message="load Gini rising against its EWMA"),
        AlertRule(
            name="gini_ceiling", metric="routing.gini",
            op=">", threshold=0.8, severity="critical",
            message="load Gini above 0.8 — a few experts take "
                    "nearly all tokens"),
        AlertRule(
            name="dead_expert", metric="routing.expert_share",
            op="<", threshold=DEAD_EXPERT_SHARE, for_ticks=5,
            severity="critical",
            resolve_threshold=min(1.0, 1.5 * DEAD_EXPERT_SHARE),
            message="expert draws under "
                    f"{DEAD_EXPERT_SHARE:.0%} of its uniform share"),
        AlertRule(
            name="drop_rate_high", metric="routing.dropped_fraction",
            op=">", threshold=DROP_RATE, for_ticks=2,
            severity="warn", resolve_threshold=0.8 * DROP_RATE,
            message=f"token drop rate above {DROP_RATE:.0%} — "
                    "capacity factor too low"),
        AlertRule(
            name="capacity_overflow",
            metric="routing.needed_capacity_factor",
            op=">", threshold=3.0,
            message="needed capacity factor above 3"),
        AlertRule(
            name="grad_spike", metric="train.grad_norm",
            kind="ewma_z", op=">=", threshold=6.0,
            message="gradient norm spiking against its EWMA"),
        AlertRule(
            name="recovery_overdue", metric="faults.outstanding",
            op=">", threshold=0.0,
            for_ticks=RECOVERY_DEADLINE_TICKS, severity="critical",
            message="a fault has gone unrecovered past the "
                    f"{RECOVERY_DEADLINE_TICKS}-tick deadline"),
    ])
    return rules


# ----------------------------------------------------------------------
# The event -> sample fold
# ----------------------------------------------------------------------

_STEP_SAMPLES = (("loss", "train.loss"), ("grad_norm", "train.grad_norm"))
_SERVE_BATCH_SAMPLES = (("p99_ms", "serve.model_p99_ms"),
                        ("p50_ms", "serve.model_p50_ms"),
                        ("queue_depth", "serve.queue_depth"),
                        ("goodput_rps", "serve.goodput_rps"))
_ROUTING_SAMPLES = (("entropy", "routing.entropy"),
                    ("gini", "routing.gini"),
                    ("dropped_fraction", "routing.dropped_fraction"),
                    ("needed_capacity_factor",
                     "routing.needed_capacity_factor"))


def event_samples(event: Mapping) -> dict[str, dict[Labels, float]]:
    """The metric samples one run event carries, by metric name and
    series labels.

    ``step`` and ``serve_batch`` events yield unlabeled scalars;
    a ``routing`` event yields its layer's series plus
    ``routing.expert_share`` per (layer, expert) — each expert's
    routed-token count normalized by the uniform share, so 1.0 is
    perfectly balanced and 0.0 a fully dead expert, independent of
    expert count (single-expert layers have no share to starve).  A
    routing event of a zero-token batch carries no evidence and
    yields nothing.
    """
    kind = event.get("kind")
    data = event.get("data") or {}
    if kind == "routing":
        load = data.get("expert_load")
        total = float(sum(load)) if load is not None else None
        if total is not None and total <= 0:
            return {}
        layer = (("layer", int(data.get("layer", 0))),)
        out = {name: {layer: float(data[key])}
               for key, name in _ROUTING_SAMPLES
               if data.get(key) is not None}
        if load is not None and len(load) > 1:
            scale = len(load) / total
            out["routing.expert_share"] = {
                layer + (("expert", e),): float(n) * scale
                for e, n in enumerate(load)}
        return out
    if kind == "step":
        keys = _STEP_SAMPLES
    elif kind == "serve_batch":
        keys = _SERVE_BATCH_SAMPLES
    else:
        return {}
    return {name: {(): float(data[key])}
            for key, name in keys if data.get(key) is not None}
