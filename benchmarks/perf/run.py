#!/usr/bin/env python3
"""Wall-clock train/serve benchmark that repeats on a drifting shared host.

    python3 benchmarks/perf/run.py --seed 0 [--trace]          # all workloads
    python3 benchmarks/perf/run.py --workload train_small --seed 0 \\
        --seconds 15 --trace 0                                 # driver form
    python3 benchmarks/perf/run.py --smoke                     # CI hook

One run of one workload: correctness gate -> set-up probes -> audit
(fixed work: fingerprint, kept tokens, RSS) -> timed blocks with a
frozen reference step between consecutive blocks -> (``--trace 1``) the
same blocks again under the span tracer.  Each phase is its own worker
process pinned to one CPU while a busy-loop companion holds every other
allowed CPU; every timing is reported in reference-normalised units.
README.md explains why, with the measurements.

The last line of stdout in the single-workload form is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_VERSION  # noqa: E402

COMPANION_LEAD_S = 2.0     # companions spin this long before phase one
PHASE_TIMEOUT_S = 170
SMOKE_SECONDS = 4.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The run cannot produce trustworthy numbers; nothing is printed."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

def worker_env() -> dict:
    """User defaults: no ``REPRO_*`` override; BLAS on one thread (the
    benchmark measures one core); a fixed hash seed so set and dict
    order repeat."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({name: "1" for name in BLAS_ENV})
    env["PYTHONHASHSEED"] = "0"
    return env


class Companions:
    """One pinned busy loop per CPU the worker does not run on."""

    def __init__(self, cpus: list[int]) -> None:
        self.cpus = cpus
        self.procs: list[subprocess.Popen] = []
        self.started = 0.0

    def __enter__(self) -> "Companions":
        for cpu in self.cpus:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "companion.py"), str(cpu)],
                stdout=subprocess.PIPE, text=True)
            self.procs.append(proc)
        for proc in self.procs:
            if proc.stdout.readline().strip() != "spinning":
                raise BenchError("a companion process failed to start")
        self.started = time.monotonic()
        return self

    def wait_warm(self) -> None:
        if self.procs:
            time.sleep(max(0.0, self.started + COMPANION_LEAD_S
                           - time.monotonic()))

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
            proc.stdout.close()


def run_phase(phase: str, cfg: dict) -> dict:
    if phase == "probe":
        cfg = dict(cfg, spawn_ns=time.perf_counter_ns())
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), phase, json.dumps(cfg)],
        env=worker_env(), capture_output=True, text=True,
        timeout=PHASE_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"phase {phase!r} of {cfg['workload']} failed "
                         f"(exit {done.returncode}):\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def check_fingerprint(audit: dict, later: dict, what: str) -> None:
    """Same seed => bit-equal loss trajectory / request-batch counts /
    model-column p99 in every later phase."""
    a, b = audit["fingerprint"], later["fingerprint"]
    n = min(len(a), len(b))
    if n == 0 or a[:n] != b[:n]:
        first = next((i for i in range(n) if a[i] != b[i]), n)
        raise BenchError(
            f"fingerprint of the {what} phase differs from the audit phase "
            f"at root {first}: {a[first:first + 1]} vs {b[first:first + 1]}")


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: int, *, smoke: bool = False,
                 companion: bool = True) -> dict:
    """All phases of one workload; returns the run record."""
    wl = spec["workloads"][name]
    plan = workloads.make_plan(spec, name, seed, seconds, trace, smoke=smoke)
    cpus = sorted(os.sched_getaffinity(0))
    measured, others = cpus[-1], cpus[:-1]
    cfg = {"workload": name, "seed": seed, "wl": wl, "cpu": measured,
           "plan": dataclasses.asdict(plan), "traced": False, "segment": 0}
    if others:
        # The orchestrator only waits, but it never does so on the
        # measured CPU.
        os.sched_setaffinity(0, set(others))
    try:
        with Companions(others if companion else []) as comp:
            gate = run_phase("gate", cfg)      # overlaps the companion lead
            comp.wait_warm()
            probes = [run_phase("probe", cfg)
                      for _ in range(plan.probes + 1)][1:]
            audit = run_phase("audit", cfg)
            timed = [run_phase("timed", dict(cfg, segment=j))
                     for j in range(plan.segments)]
            traced = None
            if trace:
                out = HERE / "out" / f"spans-{name}.json"
                traced = run_phase("timed", dict(cfg, traced=True,
                                                 spans_out=str(out)))
            check_fingerprint(audit, timed[0], "timed[0]")
            if traced:
                check_fingerprint(audit, traced, "traced")
            for j, phase in enumerate(timed[1:], 1):
                # A serve segment past the first replays later traces
                # than the audit did and has nothing to compare.
                if phase["fingerprint"]:
                    check_fingerprint(audit, phase, f"timed[{j}]")
    finally:
        os.sched_setaffinity(0, set(cpus))
    return assemble(spec, name, seed, seconds, trace, gate, probes, audit,
                    timed, traced)


def phase_ratios(phase: dict) -> list[float]:
    return stats.block_ratios(phase["walls_ns"], phase["work"],
                              phase["refs_ns"])


def assemble(spec, name, seed, seconds, trace, gate, probes, audit, timed,
             traced) -> dict:
    wl = spec["workloads"][name]
    serve = wl["kind"] == "serve"
    ref_nominal_s = wl["ref_nominal_s"]
    interp_nominal_ns = spec["interp_ref_nominal_s"] * 1e9

    def setup_part(key: str) -> float:
        """Median over probes, each normalised by the interpreter
        reference timed in the same process."""
        return stats.median([p[key] * interp_nominal_ns / p["interp_ref_ns"]
                             for p in probes]) / 1e9

    def total(phases, key):
        return sum(p[key] for p in phases)

    # One median over the blocks of every segment.
    ratios = [r for seg in timed for r in phase_ratios(seg)]
    tokens_per_s = stats.normalised_rate(ratios, ref_nominal_s)
    kept_from = timed if serve else [audit]
    routed = total(kept_from, "routed_slots")
    dropped = total(kept_from, "dropped_slots")
    phases = [audit] + timed + ([traced] if traced else [])
    end_to_end = {
        "setup_s": setup_part("setup_ns"),
        "tokens_per_s": tokens_per_s,
        "peak_rss_mb": audit["peak_rss_mb"],
        "kept_token_fraction": 1.0 - dropped / routed,
    }
    # Tail over every block of the run; each process's ratios are taken
    # relative to its own median, so tracing overhead and per-process
    # offsets cancel.
    relative = []
    for phase in phases[1:]:
        own = phase_ratios(phase)
        mid = stats.median(own)
        relative += [r / mid for r in own]
    try:
        tail = stats.percentile(relative, 0.9)
    except ValueError:
        tail = None                 # fewer than 100 blocks: no p90
    walls = [w for seg in timed for w in seg["walls_ns"]]
    work = [w for seg in timed for w in seg["work"]]
    refs = sorted(r for seg in timed for r in seg["refs_ns"])
    decile = max(1, len(refs) // 10)
    controls = {
        "machine.ref_ms_p50": stats.median(refs) / 1e6,
        "machine.ref_drift": (stats.median(refs[-decile:])
                              / stats.median(refs[:decile])),
        "machine.wall_tokens_per_s": stats.raw_rate(walls, work),
        "tail.block_p90_over_p50": tail,
    }
    failed = total(phases, "failed")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0,
        "attempted": total(phases, "attempted"), "failed": failed,
        "end_to_end": end_to_end, "controls": controls, "per_layer": None,
        "info": {"blocks": len(relative), "work": sum(work),
                 "routed_slots": routed, "dropped_slots": dropped,
                 "gate_error": gate["gate_error"],
                 "interp_ref_ms": stats.median(
                     [p["interp_ref_ns"] for p in probes]) / 1e6},
        # The raw material of tokens_per_s, one entry per segment.
        "blocks": [{k: seg[k] for k in ("walls_ns", "work", "refs_ns")}
                   for seg in timed],
    }
    if traced:
        per_layer = dict(traced["layers"])
        traced_rate = stats.normalised_rate(phase_ratios(traced),
                                            ref_nominal_s)
        per_layer.update(controls)
        per_layer.update({
            "trace.overhead_frac": tokens_per_s / traced_rate - 1.0,
            "serve.batcher.requests_per_batch":
                traced["attempted"] / traced["batches"] if serve else None,
            "serve.batcher.tokens_per_batch":
                traced["tokens"] / traced["batches"] if serve else None,
            "serve.engine.unserved_requests":
                total(phases, "unserved_requests") if serve else None,
            "train.trainer.skipped_steps":
                None if serve else total(phases, "skipped_steps"),
            "setup.import_s": setup_part("import_ns"),
            "setup.build_s": setup_part("build_ns"),
            "setup.first_root_s": setup_part("first_root_ns"),
            "mem.rss_growth_mb": audit["rss_growth_mb"],
        })
        record["per_layer"] = per_layer
    return record


# ----------------------------------------------------------------------
# The metric-name contract
# ----------------------------------------------------------------------

def check_contract(contract: dict, spec: dict, record: dict) -> None:
    """Refuse to print numbers whose names differ from BENCHMARK.json,
    or whose nulls differ from ``spec.json``'s table."""
    def names(section):
        return [m["name"] for m in contract[section]]

    problems = []
    if sorted(record["end_to_end"]) != sorted(names("end_to_end")):
        problems.append(
            f"end-to-end names {sorted(record['end_to_end'])} != "
            f"BENCHMARK.json {sorted(names('end_to_end'))}")
    if record["workload"] not in [w["name"] for w in contract["workloads"]]:
        problems.append(f"workload {record['workload']} not in BENCHMARK.json")
    layers = record["per_layer"]
    if layers is not None:
        if sorted(layers) != sorted(names("per_layer")):
            missing = sorted(set(names("per_layer")) - set(layers))
            extra = sorted(set(layers) - set(names("per_layer")))
            problems.append(f"per-layer names differ from BENCHMARK.json: "
                            f"missing {missing}, extra {extra}")
        few_blocks = record["info"]["blocks"] < 100
        for metric, value in layers.items():
            expected_null = record["workload"] in spec["null_on"].get(metric, [])
            if metric == "tail.block_p90_over_p50" and few_blocks:
                continue
            if (value is None) != expected_null:
                problems.append(
                    f"{metric} is {'null' if value is None else 'present'} "
                    f"on {record['workload']}, spec.json says otherwise")
    for metric, value in record["end_to_end"].items():
        if not value > 0:
            problems.append(f"end-to-end {metric} = {value} is not > 0")
    if spec["reference_version"] != REFERENCE_VERSION:
        problems.append("spec.json reference_version != reference.py's")
    if problems:
        raise BenchError("metric contract broken:\n  " + "\n  ".join(problems))


def result_line(contract: dict, record: dict) -> str:
    """The driver's one-line result.  It cannot carry null, so a metric
    that is absent on this workload reads 0 there; the table and the
    ``--out`` file keep null."""
    section = "per_layer" if record["trace"] else "end_to_end"
    values = record[section]
    metrics = {m["name"]: {"value": values[m["name"]] or 0, "unit": m["unit"]}
               for m in contract[section]}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def print_table(contract: dict, record: dict) -> None:
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['seconds']:g} s  {record['info']['blocks']} blocks  "
          f"attempted {record['attempted']}  failed {record['failed']}")
    rows = list(record["end_to_end"].items())
    rows += list((record["per_layer"] or record["controls"]).items())
    for name, value in rows:
        text = "null" if value is None else f"{value:.6g}"
        print(f"  {name:42s} {text:>14s} {units[name]}")


def write_out(path: str, records: list[dict], append: bool) -> None:
    doc = {"schema": 1, "reference_version": REFERENCE_VERSION, "runs": []}
    if append and os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["runs"].extend(records)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="timed region (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: also run the traced phase")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload briefly, traced; checks the metric "
                         "contract and ns conservation only")
    ap.add_argument("--out", help="write the run records to this JSON file")
    ap.add_argument("--append", action="store_true",
                    help="add to --out instead of replacing it")
    ap.add_argument("--no-companion", action="store_true",
                    help="diagnostic: leave the other CPUs idle (README.md, "
                         "'Noise')")
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {REPO_ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    contract, spec = workloads.load_contract(), workloads.load_spec()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload:
        if args.workload not in names:
            print(f"run.py: unknown workload {args.workload!r}; choose from "
                  f"{names}", file=sys.stderr)
            return 2
        names = [args.workload]
    seconds = args.seconds or contract["run_seconds"]
    trace = args.trace
    if args.smoke:
        seconds, trace = SMOKE_SECONDS, 1
    records = []
    try:
        for name in names:
            record = run_workload(spec, name, args.seed, seconds, trace,
                                  smoke=args.smoke,
                                  companion=not args.no_companion)
            check_contract(contract, spec, record)
            records.append(record)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_table(contract, record)
    if args.out:
        write_out(args.out, records, args.append)
    if args.smoke:
        print(f"smoke ok: {len(records)} workloads, metric contract and "
              "ns conservation hold")
    elif args.workload:
        print(result_line(contract, records[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
