"""Workload parameters, the phase plan, and the program builders.

Parameters live in ``spec.json`` (frozen with the baseline, like
``reference.py``); this module turns them into a *phase plan* — how many
warm-up roots, blocks, audit batches and probes a run does — and into
the objects handed to the program's public entry points.

The plan is a pure function of ``(workload, seed, seconds, trace)``: the
amount of work never adapts to measured speed, so counts, losses, RSS
and routing repeat exactly for a seed.

Why these four (a 2x2: the same ``repro.nn.moe.MoE`` layer used two ways
x two regimes): every optimisation has one workload that exercises it
and one that bypasses it (small <-> wide), and every layer is used two
ways (train: forward + backward + optimizer; serve: forward-only behind
the batcher) — so a tape-free inference path that slows training, or a
grouped GEMM that slows tiny batches, shows.  See ``BENCHMARK.json`` for
the per-workload sentence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from reference import RefSpec

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent

#: Share of ``--seconds`` given to each timed phase.  A traced run splits
#: the budget between an untraced phase (the overhead baseline and the
#: machine controls) and the traced one.
UNTRACED_SHARE = {0: 1.0, 1: 0.6}
TRACED_SHARE = 0.4
#: Fresh-process set-up probes after one discarded probe.
PROBES = {0: 7, 1: 3}
#: The untraced timed phase is cut into this many worker processes.  The
#: program's long-lived arrays (model, optimizer moments) land somewhere
#: in physical memory once per process, which biases that process by
#: ~1-2 % (halves of one process agree to 0.6 %, processes differ by up
#: to 3.6 % on train_wide); the run's median is over all segments.
SEGMENTS = 3


def load_spec() -> dict:
    with open(HERE / "spec.json") as fh:
        return json.load(fh)


def load_contract() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Plan:
    """Everything a run of one workload will do, fixed up front."""

    workload: str
    seed: int
    warm_roots: int          # untimed roots (steps / replays) first
    roots_per_block: int     # train: steps per block; serve: 1 replay
    segments: int            # worker processes of the untraced phase
    blocks: int              # untraced timed blocks per segment
    traced_blocks: int       # 0 on an untraced run (one process)
    audit_batches: int       # train: forward-only kept-fraction audit
    fingerprint_roots: int   # audit-phase steps / replays
    probes: int


def sub_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th replay / audit stream of a run."""
    return (seed * 1_000_003 + index) % (2 ** 31 - 1)


def make_plan(spec: dict, workload: str, seed: int, seconds: float,
              trace: int, smoke: bool = False) -> Plan:
    """The phase plan; a pure function of its arguments."""
    if workload not in spec["workloads"]:
        raise KeyError(f"unknown workload {workload!r}; choose from "
                       f"{sorted(spec['workloads'])}")
    if seconds <= 0:
        raise ValueError(f"seconds must be > 0, got {seconds}")
    if trace not in (0, 1):
        raise ValueError(f"trace must be 0 or 1, got {trace}")
    wl = spec["workloads"][workload]
    p = wl["plan"]
    # One block plus the reference step that follows it, at the speed
    # the baseline was taken at.
    per_block_s = p["nominal_block_s"] + wl["ref_nominal_s"]

    def blocks(share: float) -> int:
        return max(3, int(seconds * share / per_block_s))

    segments = 1 if smoke else SEGMENTS
    return Plan(
        workload=workload, seed=seed,
        warm_roots=p["warm_roots"],
        roots_per_block=p.get("roots_per_block", 1),
        segments=segments,
        blocks=max(3, blocks(UNTRACED_SHARE[trace]) // segments),
        traced_blocks=blocks(TRACED_SHARE) if trace else 0,
        audit_batches=p.get("audit_batches", 0),
        fingerprint_roots=p["fingerprint_roots"],
        probes=1 if smoke else PROBES[trace])


def ref_spec(wl: dict) -> RefSpec:
    return RefSpec(**wl["reference"])


# ----------------------------------------------------------------------
# Program builders (import ``repro`` lazily: the plan and the tests of
# this package must work without it)
# ----------------------------------------------------------------------

def build_train(wl: dict, seed: int):
    """(model, task, train set, test set) for a train workload.

    The model is initialised from a fixed generator — it is the program's
    state, like ``repro profile step`` — and the task definition is
    fixed; ``seed`` draws the data and, in ``train_model``, the batch
    order.  (Kept-token fraction at initialisation varies 4x across
    *initialisations*; across data draws it is stable.)
    """
    import numpy as np
    from repro.nn.models import MoEClassifier
    from repro.train.data import ClusteredTokenTask

    task = ClusteredTokenTask(seed=0, **wl["task"])
    model = MoEClassifier(rng=np.random.default_rng(0), **wl["model"])
    rng = np.random.default_rng(seed)
    train = task.sample(wl["train_tokens"], rng)
    test = task.sample(wl["test_tokens"], rng)
    return model, task, train, test


def build_serve(wl: dict, name: str):
    """The short-horizon ``ServeWorkload`` one block replays."""
    from dataclasses import replace

    from repro.serve.arrivals import ArrivalSpec
    from repro.serve.workloads import ServeSLO, ServeWorkload, get_workload

    if "registered" in wl:
        base = get_workload(wl["registered"])
        return replace(base, arrival=replace(base.arrival,
                                             horizon_s=wl["horizon_s"]))
    # The virtual clock is saturated on purpose (closed loop, one
    # client: arrivals only decide batch composition), so the SLO is
    # set where it cannot fail.
    return ServeWorkload(
        name=name, title="Full fixed-shape batches, expert-GEMM-bound",
        arrival=ArrivalSpec(horizon_s=wl["horizon_s"], **wl["arrival"]),
        slo=ServeSLO(p99_ms=1e12, min_goodput_rps=0.0, deadline_ms=1e12),
        **wl["workload"])


def moe_shape(wl: dict, serve_workload=None) -> dict:
    """Layer widths + the token counts the correctness gate checks."""
    if wl["kind"] == "train":
        m = wl["model"]
        return {"model_dim": m["model_dim"], "hidden_dim": m["hidden_dim"],
                "num_experts": m["num_experts"], "top_k": m["top_k"],
                "capacity_factor": m["capacity_factor"],
                "tokens": [wl["batch_size"]]}
    s = serve_workload
    full = s.max_batch_size * s.arrival.max_tokens
    return {"model_dim": s.model_dim, "hidden_dim": s.hidden_dim,
            "num_experts": s.num_experts, "top_k": s.top_k,
            "capacity_factor": s.capacity_factor,
            "tokens": [full, 13]}
