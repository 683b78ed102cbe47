"""Aggregate scenario results into ``BENCH_scenarios.json``.

All scenarios of one ``repro scenario --all`` invocation land in a
single schema-versioned artifact so ``repro regress`` gates every
SLO verdict and every deterministic price in one place.  Metric names
are namespaced ``<scenario>.<metric>``; wall-clock metrics keep
``kind="measured"`` and are exempt from the gate.
"""

from __future__ import annotations

from typing import Iterable

from repro.bench.harness import Table
from repro.bench.report import BenchResult, emit_named
from repro.scenarios.engine import ScenarioResult

__all__ = ["SCENARIOS_ARTIFACT", "emit_scenarios", "render_results"]

SCENARIOS_ARTIFACT = "scenarios"


def emit_scenarios(results: Iterable[ScenarioResult], *, fast: bool,
                   directory=None, verbose: bool = False) -> BenchResult:
    """Write (when configured) the combined scenario bench record."""
    return emit_named(
        SCENARIOS_ARTIFACT,
        "Chaos scenarios: SLO gates over seeded fault timelines",
        "scenario",
        [(r.scenario.name, r.scenario.seed, r.metrics) for r in results],
        fast=fast, directory=directory, verbose=verbose)


def render_results(results: Iterable[ScenarioResult]) -> str:
    """Human summary table of a scenario batch."""
    table = Table(
        "scenario SLO report",
        ["scenario", "seed", "steps", "events", "checks", "failed",
         "verdict"])
    for res in sorted(results, key=lambda r: r.scenario.name):
        sc = res.scenario
        failed = sum(1 for c in res.checks if not c.passed)
        table.add_row(sc.name, sc.seed, sc.steps, len(sc.events),
                      len(res.checks), failed,
                      "PASS" if res.passed else "FAIL")
    return table.render()
