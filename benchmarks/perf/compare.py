#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or check the benchmark against itself.

    python3 benchmarks/perf/compare.py A.json B.json
    python3 benchmarks/perf/compare.py --self-check [--runs 3]

``A.json`` / ``B.json`` are ``run.py --out`` files holding several runs
per workload (A = parent, B = change).  One row per (end-to-end metric,
workload):

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — a set's own quartile spread is wider than the bound,
  so the sets cannot be told apart (unless every B run beats every A
  run);
* ``ok``         — otherwise.

Exit status 0 only when every row is ``ok``.

``--self-check`` runs two interleaved sets (ABAB...) of the *current*
code, same seeds on both sides, and additionally requires: set medians
of ``tokens_per_s`` and ``setup_s`` within half their bound; within-set
(max - min) / median inside the bound; exact counts identical for a
seed.  It prints raw and reference-normalised spread side by side — the
evidence that normalisation works on this host, not an assumption.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = ("work", "routed_slots", "dropped_slots")


def load_runs(path: str) -> dict[str, list[dict]]:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != 1:
        raise SystemExit(f"{path}: not a run.py --out file (schema 1)")
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for run in doc["runs"]:
        by_workload[run["workload"]].append(run)
    return by_workload


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0:
    better)."""
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def compare(contract: dict, runs_a: dict, runs_b: dict) -> list[dict]:
    rows = []
    for wl in [w["name"] for w in contract["workloads"]]:
        if wl not in runs_a or wl not in runs_b:
            continue
        for metric in contract["end_to_end"]:
            name, better, bound = (metric["name"], metric["better"],
                                   metric["bound"])
            a = [r["end_to_end"][name] for r in runs_a[wl]]
            b = [r["end_to_end"][name] for r in runs_b[wl]]
            med_a, med_b = stats.median(a), stats.median(b)
            spread = max(stats.quartile_spread(a), stats.quartile_spread(b))
            if better == "higher":
                b_always_better = min(b) > max(a)
            else:
                b_always_better = max(b) < min(a)
            if worse_by(med_a, med_b, better) > bound:
                verdict = "worse"
            elif spread > bound and not b_always_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": wl, "metric": name, "unit": metric["unit"],
                         "a": a, "b": b, "median_a": med_a, "median_b": med_b,
                         "worse_by": worse_by(med_a, med_b, better),
                         "spread": spread, "bound": bound, "verdict": verdict})
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':13s} {'metric':20s} {'median A':>12s} {'median B':>12s}"
          f" {'B worse by':>10s} {'IQR/med':>8s} {'bound':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:13s} {r['metric']:20s} {r['median_a']:12.6g} "
              f"{r['median_b']:12.6g} {r['worse_by']:+10.2%} "
              f"{r['spread']:8.2%} {r['bound']:6.0%}  {r['verdict']}")


# ----------------------------------------------------------------------
# Self-check
# ----------------------------------------------------------------------

def self_check(contract: dict, runs: int, seconds: float | None) -> int:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    paths = {s: out_dir / f"selfcheck-{s}.json" for s in "AB"}
    for path in paths.values():
        path.unlink(missing_ok=True)
    names = [w["name"] for w in contract["workloads"]]
    for seed in range(runs):
        for side in "AB":                       # ABAB...: sets interleave
            for wl in names:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                       "--seed", str(seed), "--out", str(paths[side]),
                       "--append"]
                if seconds:
                    cmd += ["--seconds", str(seconds)]
                done = subprocess.run(cmd, capture_output=True, text=True)
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return 1
                print(f"  ran {side} seed {seed} {wl}", flush=True)
    runs_a, runs_b = load_runs(str(paths["A"])), load_runs(str(paths["B"]))
    rows = compare(contract, runs_a, runs_b)
    print_rows(rows)
    problems = [f"{r['workload']}/{r['metric']}: {r['verdict']}"
                for r in rows if r["verdict"] != "ok"]
    for r in rows:
        tag = f"{r['workload']}/{r['metric']}"
        if (r["metric"] in ("tokens_per_s", "setup_s")
                and abs(r["worse_by"]) > r["bound"] / 2):
            problems.append(f"{tag}: set medians differ by "
                            f"{abs(r['worse_by']):.2%} > half the bound")
        for side in "ab":
            if stats.range_spread(r[side]) > r["bound"]:
                problems.append(
                    f"{tag}: set {side.upper()} (max-min)/median "
                    f"{stats.range_spread(r[side]):.2%} > bound")
    # Exact for a seed: kept fraction and every count.
    for wl in names:
        for ra, rb in zip(runs_a[wl], runs_b[wl]):
            for key in EXACT_COUNTS:
                if ra["info"][key] != rb["info"][key]:
                    problems.append(
                        f"{wl} seed {ra['seed']}: count {key} differs "
                        f"({ra['info'][key]} vs {rb['info'][key]})")
            if (ra["end_to_end"]["kept_token_fraction"]
                    != rb["end_to_end"]["kept_token_fraction"]):
                problems.append(f"{wl} seed {ra['seed']}: kept_token_fraction "
                                "differs between the sets")
    print("\nraw vs reference-normalised tokens/s, all runs of both sets "
          "((max-min)/median | sd/mean):")
    for wl in names:
        both = runs_a[wl] + runs_b[wl]
        raw = [r["controls"]["machine.wall_tokens_per_s"] for r in both]
        norm = [r["end_to_end"]["tokens_per_s"] for r in both]
        ratio = stats.range_spread(norm) / stats.range_spread(raw)
        print(f"  {wl:13s} raw {stats.range_spread(raw):7.2%} | "
              f"{stats.rel_sd(raw):6.2%}   normalised "
              f"{stats.range_spread(norm):7.2%} | {stats.rel_sd(norm):6.2%}"
              f"   normalised/raw {ratio:5.2f}"
              f"{'  (<= 1/3)' if ratio <= 1 / 3 else ''}")
    if problems:
        print("\nself-check FAILED:\n  " + "\n  ".join(problems))
        return 1
    print("\nself-check ok: two sets of the same code agree within the "
          "benchmark's own bounds")
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="*", help="A.json B.json")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--runs", type=int, default=3,
                    help="self-check: runs per workload per set (>= 3)")
    ap.add_argument("--seconds", type=float,
                    help="self-check: override run_seconds")
    args = ap.parse_args(argv)
    contract = workloads.load_contract()
    if args.self_check:
        if args.runs < 3:
            ap.error("--runs must be >= 3")
        return self_check(contract, args.runs, args.seconds)
    if len(args.files) != 2:
        ap.error("give A.json and B.json, or --self-check")
    rows = compare(contract, load_runs(args.files[0]),
                   load_runs(args.files[1]))
    print_rows(rows)
    return 0 if all(r["verdict"] == "ok" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
