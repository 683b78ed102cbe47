"""``BENCH_serving.json`` — the serving SLO record for `repro regress`.

One combined artifact per ``repro serve --all`` run: every workload's
metrics namespaced as ``<workload>.<metric>``.  Modeled metrics carry
tolerance 0 (the virtual clock makes them bit-stable, so any drift is
a determinism break); measured wall-clock metrics ride along with
``kind="measured"`` and stay out of the default regression gate —
the two-column methodology the artifact exists to preserve.
"""

from __future__ import annotations

from typing import Iterable

from repro.bench.harness import Table
from repro.bench.report import BenchResult, emit_named
from repro.serve.engine import ServeResult

__all__ = ["SERVING_ARTIFACT", "emit_serving", "render_serve_results"]

SERVING_ARTIFACT = "serving"


def emit_serving(results: Iterable[ServeResult], *, fast: bool,
                 directory=None, verbose: bool = False) -> BenchResult:
    """Write (when configured) the combined serving bench record."""
    return emit_named(
        SERVING_ARTIFACT,
        "Online serving: SLO percentiles over seeded arrival traces",
        "workload",
        [(r.workload.name, r.workload.seed, r.metrics) for r in results],
        fast=fast, directory=directory, verbose=verbose)


def render_serve_results(results: Iterable[ServeResult]) -> str:
    """Human summary table of a serving batch."""
    table = Table(
        "serving SLO report",
        ["workload", "seed", "requests", "batches", "p50 ms",
         "p99 ms", "goodput r/s", "verdict"])
    for res in sorted(results, key=lambda r: r.workload.name):
        wl = res.workload
        table.add_row(
            wl.name, wl.seed, len(res.requests), len(res.batches),
            f"{res.metric('model_p50_ms').value:.2f}",
            f"{res.metric('model_p99_ms').value:.2f}",
            f"{res.metric('goodput_rps').value:.1f}",
            "PASS" if res.passed else "FAIL")
    return table.render()
