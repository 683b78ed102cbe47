"""Machine-readable benchmark results and the perf-regression gate.

Every ``benchmarks/bench_*.py`` regenerates one paper artifact; until
now the evidence lived only in printed tables.  This module gives each
bench a structured record:

* :class:`Metric` — one named scalar (value, unit, ``kind`` of
  ``"model"`` for deterministic analytic results vs ``"measured"`` for
  wall-clock timings, an optional improvement direction, and the
  relative tolerance the regression gate should allow);
* :class:`BenchResult` — artifact id, title, metrics, the
  ``REPRO_SCALE`` the run used, and a fingerprint of the bench's
  configuration so stale baselines are detected instead of silently
  compared;
* :func:`emit` — called at the end of every bench ``run()``; validates
  the record and, when ``REPRO_BENCH_DIR`` (or ``directory=``) is set,
  writes ``BENCH_<artifact>.json`` there;
* :class:`SLOCheck` / :class:`NamedRunResult` / :func:`emit_named` —
  the named-run record path ``repro scenario`` and ``repro serve``
  share: each run carries SLO checks and metrics, a batch of runs
  becomes one record with rows namespaced ``<name>.<metric>``;
* :func:`load_results` / :func:`render_report` — aggregation behind
  ``repro report``;
* :func:`compare` / :func:`render_comparisons` — the ``repro regress``
  logic: per-metric tolerance comparison against committed baselines
  (``benchmarks/baselines/*.json``), failing on regressions, missing
  metrics, and fingerprint drift.

Measured (wall-clock) metrics are recorded in the emitted results but
never stored in a baseline or compared — CI machines are too noisy to
gate on real time; ``benchmarks/perf`` owns wall-clock.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping

from repro.obs import get_run

__all__ = [
    "SCHEMA_VERSION",
    "Metric",
    "BenchResult",
    "validate_payload",
    "emit",
    "SLOCheck",
    "NamedRunResult",
    "emit_named",
    "bench_dir",
    "load_results",
    "render_report",
    "Comparison",
    "compare",
    "render_comparisons",
    "has_failures",
    "write_baselines",
]

SCHEMA_VERSION = 1

_KINDS = ("model", "measured")
_FAILING_STATUSES = ("regressed", "missing", "fingerprint-mismatch")


@dataclass(frozen=True)
class Metric:
    """One scalar result of a bench run.

    ``higher_is_better`` drives the regression direction: ``True``
    fails only on decreases, ``False`` only on increases, ``None``
    (default) on relative deviation either way.  ``tolerance`` is the
    allowed relative deviation (fraction of the baseline value); it
    travels with the metric so committed baselines carry their own
    gate widths.
    """

    name: str
    value: float
    unit: str = ""
    kind: str = "model"
    higher_is_better: bool | None = None
    tolerance: float = 0.05

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("metric name must be non-empty")
        if not isinstance(self.value, (int, float)) \
                or isinstance(self.value, bool) \
                or not math.isfinite(self.value):
            raise ValueError(
                f"metric {self.name!r} value must be a finite number, "
                f"got {self.value!r}")
        if self.kind not in _KINDS:
            raise ValueError(
                f"metric {self.name!r} kind must be one of {_KINDS}, "
                f"got {self.kind!r}")
        if self.tolerance < 0 or not math.isfinite(self.tolerance):
            raise ValueError(
                f"metric {self.name!r} tolerance must be finite and "
                f">= 0, got {self.tolerance}")

    def to_json_obj(self) -> dict:
        return {"name": self.name, "value": float(self.value),
                "unit": self.unit, "kind": self.kind,
                "higher_is_better": self.higher_is_better,
                "tolerance": self.tolerance}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Metric":
        return cls(name=obj["name"], value=float(obj["value"]),
                   unit=obj.get("unit", ""),
                   kind=obj.get("kind", "model"),
                   higher_is_better=obj.get("higher_is_better"),
                   tolerance=float(obj.get("tolerance", 0.05)))


@dataclass
class BenchResult:
    """The machine-readable outcome of one bench run."""

    artifact: str
    title: str
    metrics: list[Metric]
    scale: str = "default"
    config: dict = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    @property
    def fingerprint(self) -> str:
        from repro.obs.runs import config_fingerprint
        return config_fingerprint(self.config)

    @property
    def filename(self) -> str:
        return f"BENCH_{self.artifact}.json"

    def metric(self, name: str) -> Metric:
        for m in self.metrics:
            if m.name == name:
                return m
        raise KeyError(f"no metric {name!r} in {self.artifact}")

    def to_json_obj(self) -> dict:
        return {
            "schema": self.schema,
            "artifact": self.artifact,
            "title": self.title,
            "scale": self.scale,
            "config": dict(self.config),
            "fingerprint": self.fingerprint,
            "metrics": [m.to_json_obj() for m in self.metrics],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "BenchResult":
        errors = validate_payload(obj)
        if errors:
            raise ValueError(
                "invalid bench result payload: " + "; ".join(errors))
        return cls(
            artifact=obj["artifact"], title=obj["title"],
            metrics=[Metric.from_json_obj(m) for m in obj["metrics"]],
            scale=obj.get("scale", "default"),
            config=dict(obj.get("config", {})),
            schema=int(obj.get("schema", SCHEMA_VERSION)))

    def write(self, directory: str | Path) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / self.filename
        path.write_text(json.dumps(self.to_json_obj(), indent=1,
                                   sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "BenchResult":
        return cls.from_json_obj(json.loads(Path(path).read_text()))


def validate_payload(obj: Mapping) -> list[str]:
    """Schema check of a ``BENCH_*.json`` payload; returns error list."""
    errors: list[str] = []
    if not isinstance(obj, Mapping):
        return ["payload must be a JSON object"]
    if obj.get("schema") != SCHEMA_VERSION:
        errors.append(f"schema must be {SCHEMA_VERSION}, "
                      f"got {obj.get('schema')!r}")
    artifact = obj.get("artifact")
    if not isinstance(artifact, str) or not artifact \
            or not all(c.isalnum() or c == "_" for c in artifact):
        errors.append(f"artifact must be a [a-z0-9_]+ string, "
                      f"got {artifact!r}")
    if not isinstance(obj.get("title"), str) or not obj.get("title"):
        errors.append("title must be a non-empty string")
    if not isinstance(obj.get("scale"), str):
        errors.append("scale must be a string")
    if not isinstance(obj.get("config", {}), Mapping):
        errors.append("config must be an object")
    metrics = obj.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        errors.append("metrics must be a non-empty list")
        return errors
    seen: set[str] = set()
    for i, m in enumerate(metrics):
        if not isinstance(m, Mapping):
            errors.append(f"metrics[{i}] must be an object")
            continue
        try:
            metric = Metric.from_json_obj(m)
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"metrics[{i}]: {exc}")
            continue
        if metric.name in seen:
            errors.append(f"duplicate metric name {metric.name!r}")
        seen.add(metric.name)
    fp = obj.get("fingerprint")
    from repro.obs.runs import config_fingerprint
    if fp is not None and fp != config_fingerprint(obj.get("config", {})):
        errors.append("fingerprint does not match config")
    return errors


def bench_dir() -> Path | None:
    """Output directory for ``BENCH_*.json``, from ``REPRO_BENCH_DIR``."""
    path = os.environ.get("REPRO_BENCH_DIR")
    return Path(path) if path else None


def emit(artifact: str, title: str, metrics: Iterable[Metric], *,
         config: Mapping | None = None,
         directory: str | Path | None = None,
         verbose: bool = False) -> BenchResult:
    """Build, validate, and (when a directory is configured) write the
    ``BENCH_<artifact>.json`` record for one bench run.

    Called unconditionally at the end of every bench ``run()`` — with
    no ``REPRO_BENCH_DIR`` set it only validates, so the structured
    record is always well-formed even when nobody collects it.
    """
    result = BenchResult(
        artifact=artifact, title=title, metrics=list(metrics),
        scale=os.environ.get("REPRO_SCALE") or "default",
        config=dict(config or {}))
    errors = validate_payload(result.to_json_obj())
    if errors:
        raise ValueError(f"bench {artifact!r} produced an invalid "
                         "result: " + "; ".join(errors))
    target = Path(directory) if directory is not None else bench_dir()
    if target is not None:
        path = result.write(target)
        if verbose:
            print(f"[bench] wrote {path}")
    run = get_run()
    if run is not None:
        run.emit("bench_result", data=result.to_json_obj())
    return result


@dataclass(frozen=True)
class SLOCheck:
    """One pass/fail assertion of a named run's SLO report.

    ``measured=True`` marks wall-clock-derived values — they stay out
    of the determinism contract (and the regression gate) but still
    gate the run itself.
    """

    name: str
    value: float
    bound: float
    op: str  # "<=" or ">="
    measured: bool = False

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">="):
            raise ValueError(f"op must be '<=' or '>=', got {self.op!r}")

    @property
    def passed(self) -> bool:
        if self.op == "<=":
            return self.value <= self.bound
        return self.value >= self.bound

    def event_data(self) -> dict:
        """The run registry's ``slo_check`` event."""
        return {"name": self.name, "value": self.value,
                "bound": self.bound, "op": self.op,
                "measured": self.measured, "passed": self.passed}

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        tag = " (wall-clock)" if self.measured else ""
        return (f"[{verdict}] {self.name}: {self.value:.6g} "
                f"{self.op} {self.bound:.6g}{tag}")


class NamedRunResult:
    """What ``ScenarioResult`` and ``ServeResult`` share: the verdict
    over ``checks`` and lookup in ``metrics`` (fields the dataclass
    subclasses declare)."""

    checks: list[SLOCheck]
    metrics: list[Metric]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def metric(self, name: str) -> Metric:
        for m in self.metrics:
            if m.name == name:
                return m
        raise KeyError(f"metric {name!r} not recorded")


def emit_named(artifact: str, title: str, noun: str,
               runs: Iterable[tuple[str, int, Iterable[Metric]]], *,
               fast: bool, directory: str | Path | None = None,
               verbose: bool = False) -> BenchResult:
    """:func:`emit` one record for a batch of named runs, each a
    ``(name, seed, metrics)``: rows are ``<name>.<metric>`` in name
    order, the config is the mode, the names and their seeds."""
    runs = sorted(runs, key=lambda run: run[0])
    return emit(
        artifact, title,
        [replace(m, name=f"{name}.{m.name}")
         for name, _, metrics in runs for m in metrics],
        config={"mode": "fast" if fast else "full",
                f"{noun}s": [name for name, _, _ in runs],
                "seeds": {name: seed for name, seed, _ in runs}},
        directory=directory, verbose=verbose)


def load_results(directory: str | Path) -> dict[str, BenchResult]:
    """All ``BENCH_*.json`` records in a directory, keyed by artifact."""
    directory = Path(directory)
    results: dict[str, BenchResult] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        result = BenchResult.load(path)
        results[result.artifact] = result
    return results


def render_report(results: Mapping[str, BenchResult]) -> str:
    """Aggregate table over a set of bench results (``repro report``)."""
    from repro.bench.harness import Table

    table = Table("Bench results", ["artifact", "metric", "value",
                                    "unit", "kind", "scale"])
    for artifact in sorted(results):
        result = results[artifact]
        for m in result.metrics:
            table.add_row(artifact, m.name, f"{m.value:g}", m.unit,
                          m.kind, result.scale)
    lines = [table.render(),
             f"{sum(len(r.metrics) for r in results.values())} metrics "
             f"across {len(results)} artifact(s)"]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing one baseline metric against a current run.

    ``status`` is one of ``ok`` / ``improved`` / ``regressed`` /
    ``missing`` (baseline metric absent from the current run) /
    ``fingerprint-mismatch`` (bench config changed — baseline stale) /
    ``skipped`` (scale mismatch) / ``new`` (current model metric
    without a baseline; informational only).
    """

    artifact: str
    metric: str
    status: str
    baseline: float | None = None
    current: float | None = None
    tolerance: float = 0.0
    note: str = ""

    @property
    def rel_delta(self) -> float | None:
        if self.baseline is None or self.current is None:
            return None
        if self.baseline == 0:
            return self.current - self.baseline
        return (self.current - self.baseline) / abs(self.baseline)

    @property
    def failed(self) -> bool:
        return self.status in _FAILING_STATUSES


def _judge(baseline: Metric, current: Metric) -> str:
    delta = current.value - baseline.value
    rel = (delta / abs(baseline.value) if baseline.value != 0
           else delta)
    tol = baseline.tolerance
    if baseline.higher_is_better is True:
        if rel < -tol:
            return "regressed"
        return "improved" if rel > tol else "ok"
    if baseline.higher_is_better is False:
        if rel > tol:
            return "regressed"
        return "improved" if rel < -tol else "ok"
    return "ok" if abs(rel) <= tol else "regressed"


def compare(current: Mapping[str, BenchResult],
            baselines: Mapping[str, BenchResult]) -> list[Comparison]:
    """Per-metric comparison of a result set against its baselines;
    ``kind="measured"`` metrics are ignored on both sides."""
    comparisons: list[Comparison] = []
    for artifact in sorted(baselines):
        base = baselines[artifact]
        cur = current.get(artifact)
        if cur is None:
            comparisons.append(Comparison(
                artifact, "*", "missing",
                note="no current result for baselined artifact"))
            continue
        if cur.scale != base.scale:
            comparisons.append(Comparison(
                artifact, "*", "skipped",
                note=f"scale mismatch: baseline {base.scale!r}, "
                     f"current {cur.scale!r}"))
            continue
        if cur.fingerprint != base.fingerprint:
            comparisons.append(Comparison(
                artifact, "*", "fingerprint-mismatch",
                note="bench config changed; regenerate the baseline "
                     "with 'repro report --write-baselines'"))
            continue
        current_names = {m.name for m in cur.metrics}
        gated = [bm for bm in base.metrics if bm.kind != "measured"]
        for bm in gated:
            if bm.name not in current_names:
                comparisons.append(Comparison(
                    artifact, bm.name, "missing", baseline=bm.value,
                    tolerance=bm.tolerance,
                    note="baseline metric absent from current run"))
                continue
            cm = cur.metric(bm.name)
            comparisons.append(Comparison(
                artifact, bm.name, _judge(bm, cm),
                baseline=bm.value, current=cm.value,
                tolerance=bm.tolerance))
        for cm in cur.metrics:
            if cm.kind != "measured" and all(bm.name != cm.name
                                             for bm in gated):
                comparisons.append(Comparison(
                    artifact, cm.name, "new", current=cm.value,
                    note="no baseline yet"))
    return comparisons


def render_comparisons(comparisons: list[Comparison]) -> str:
    from repro.bench.harness import Table

    table = Table("Perf regression check",
                  ["artifact", "metric", "baseline", "current",
                   "delta", "tol", "status"])
    for c in comparisons:
        delta = c.rel_delta
        table.add_row(
            c.artifact, c.metric,
            "-" if c.baseline is None else f"{c.baseline:g}",
            "-" if c.current is None else f"{c.current:g}",
            "-" if delta is None else f"{delta:+.2%}",
            f"{c.tolerance:.0%}" if c.tolerance else "-",
            c.status + (f" ({c.note})" if c.note else ""))
    failures = [c for c in comparisons if c.failed]
    verdict = (f"FAIL: {len(failures)} failing comparison(s)"
               if failures else "OK: no regressions")
    return table.render() + "\n" + verdict


def has_failures(comparisons: list[Comparison]) -> bool:
    return any(c.failed for c in comparisons)


def write_baselines(results: Mapping[str, BenchResult],
                    directory: str | Path) -> list[Path]:
    """Persist a result set's model metrics as the committed baselines
    (the gate stores only what it gates; an artifact with nothing but
    measured metrics gets no file)."""
    gated = {artifact: [m for m in result.metrics if m.kind != "measured"]
             for artifact, result in results.items()}
    return [replace(results[artifact], metrics=metrics).write(directory)
            for artifact, metrics in sorted(gated.items()) if metrics]
