"""Scenario executor: play a chaos timeline, assert the SLOs.

One :func:`run_scenario` call drives a :class:`~repro.scenarios.spec.
Scenario` end to end:

* **Functional substrate** — the toy MoE classifier actually trains
  through the timeline.  A :class:`RankLoss` kills the process image:
  the model object is discarded and rebuilt, training resumes from the
  latest checkpoint (bit-identically, so deterministic metrics survive
  the fault), and the wall clock from kill to re-reaching the pre-fault
  step is held against the recovery deadline.  An :class:`ExpertDeath`
  calls ``fail_expert`` mid-run; survivor gating renormalizes and a
  fault-free twin run (same seed) bounds the loss damage.  A
  :class:`NonFiniteStep` poisons one weight; the trainer's guard must
  roll back and skip exactly that step.
* **Performance substrate** — every event is priced on the simulated
  cluster: rank loss re-runs :func:`~repro.resilience.recovery.
  reselect_strategy` under whatever brownout is active at that step
  (compound faults), a :class:`LinkBrownout` re-selects the All-to-All
  algorithm on the derated fabric (the 2DH→linear switch), and an
  :class:`ElasticResize` re-derives the expert placement and simulates
  the shard movement through :mod:`repro.cluster.simulator`, and a
  :class:`SimClockFault` re-simulates the pipeline segment under a
  straggler / degraded-link / op-failure ``FaultPlan``.

Everything is recorded through one :class:`~repro.obs.loop.
LoopTelemetry` when ``REPRO_RUNS_DIR`` is set — ``scenario`` /
``fault`` / ``recovery`` / ``strategy_switch`` / ``slo_check`` events
land in the same stream the trainer writes, so ``repro runs show
<run> --events fault`` (or ``recovery``, ``slo_check``) prints the
fault/recovery/SLO timeline.  On a rank loss the engine
compacts its own run so the replayed steps do not appear twice.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

from repro.bench.report import Metric, NamedRunResult, SLOCheck
from repro.cluster.simulator import Schedule, simulate
from repro.cluster.topology import ClusterTopology, ndv4_topology
from repro.core.config import MoEConfig
from repro.obs import set_run
from repro.obs.loop import LoopTelemetry
from repro.parallel.placement import ExpertPlacement, build_placement
from repro.parallel.strategy import best_strategy
from repro.collectives.schedule import feasible_a2a_algorithms
from repro.pipeline.schedule import (
    PipelineStrategy,
    build_pipeline_schedule,
)
from repro.resilience.faults import (
    FaultPlan,
    LinkDegradation,
    OpFailure,
    StragglerWindow,
)
from repro.resilience.recovery import reselect_strategy
from repro.scenarios.spec import (
    ElasticResize,
    ExpertDeath,
    LinkBrownout,
    NonFiniteStep,
    RankLoss,
    Scenario,
    SimClockFault,
)

__all__ = [
    "ScenarioResult",
    "run_scenario",
    "price_replacement",
]


@dataclass
class ScenarioResult(NamedRunResult):
    """SLO report plus everything the run produced."""

    scenario: Scenario
    fast: bool
    checks: list[SLOCheck] = field(default_factory=list)
    metrics: list[Metric] = field(default_factory=list)
    timeline: list[dict] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    eval_accuracy: float = 0.0
    run_id: str | None = None

    def describe(self) -> str:
        sc = self.scenario
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"scenario {sc.name} (seed {sc.seed}, "
                 f"{sc.steps} steps{', fast' if self.fast else ''}) "
                 f"-> {verdict}",
                 f"  {sc.title}",
                 "-- timeline --"]
        for ev in self.timeline:
            detail = ", ".join(f"{k}={v}" for k, v in ev.items()
                               if k not in ("step", "kind"))
            lines.append(f"  step {ev['step']:>4}  {ev['kind']:<16} "
                         f"{detail}")
        lines.append("-- SLO report --")
        for check in self.checks:
            lines.append(f"  {check.describe()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Performance-substrate pricing
# ----------------------------------------------------------------------

def _placement_for(world: int, experts: int) -> ExpertPlacement:
    """Canonical expert placement at a given world size."""
    if world >= experts:
        if world % experts != 0:
            raise ValueError(
                f"world {world} not divisible by {experts} experts")
        shards = world // experts
        return build_placement(world, -shards if shards > 1 else 1)
    if experts % world != 0:
        raise ValueError(
            f"{experts} experts not divisible over world {world}")
    return build_placement(world, experts // world)


def price_replacement(old_world: int, new_world: int, experts: int,
                      topology: ClusterTopology,
                      param_bytes: float) -> tuple[float, float]:
    """Simulated (makespan seconds, bytes moved) of a membership change.

    Every expert shard a new-placement host does not already hold is
    copied from one current host; each source GPU serializes its
    outgoing copies on its comm stream and the cluster simulator turns
    the transfer DAG into a makespan.  ``topology`` must span
    ``max(old_world, new_world)`` ranks.
    """
    if topology.num_gpus < max(old_world, new_world):
        raise ValueError(
            f"topology spans {topology.num_gpus} GPUs, need "
            f"{max(old_world, new_world)}")
    old_pl = _placement_for(old_world, experts)
    new_pl = _placement_for(new_world, experts)
    schedule = Schedule()
    moved = 0.0
    transfers = 0
    for e in range(experts):
        old_hosts = old_pl.gpus_of_expert(e)
        new_hosts = new_pl.gpus_of_expert(e)
        shard_bytes = param_bytes / new_pl.shards_per_expert
        src = min(old_hosts)
        for g in new_hosts:
            if g in old_hosts:
                continue
            link = topology.link_between(src, g)
            schedule.new_op(work=link.message_time(shard_bytes),
                            gpu=src, stream="comm", kind="comm",
                            label=f"replace/e{e}->g{g}")
            moved += shard_bytes
            transfers += 1
    if transfers == 0:
        return 0.0, 0.0
    return simulate(schedule).makespan, moved


def _sim_shapes(sc: Scenario) -> tuple[MoEConfig, ClusterTopology]:
    cfg = MoEConfig(model_dim=1024, hidden_dim=4096,
                    tokens_per_gpu=4096,
                    experts_per_gpu=sc.sim_experts / sc.sim_world,
                    world_size=sc.sim_world, top_k=2)
    return cfg, ndv4_topology(sc.sim_world)


def _throughput(cfg: MoEConfig, topo: ClusterTopology) -> float:
    best = best_strategy(cfg, topo)
    return cfg.tokens_per_step / best.total_time


# ----------------------------------------------------------------------
# Functional-substrate helpers
# ----------------------------------------------------------------------

def _build_model(sc: Scenario):
    from repro.nn.models import MoEClassifier
    return MoEClassifier(
        input_dim=sc.input_dim, model_dim=sc.model_dim,
        hidden_dim=sc.hidden_dim, num_classes=sc.num_classes,
        num_blocks=sc.num_blocks, num_experts=sc.num_experts,
        rng=np.random.default_rng(sc.seed + 1), top_k=sc.top_k)


def _build_batches(sc: Scenario):
    from repro.train.data import ClusteredTokenTask
    task = ClusteredTokenTask(num_clusters=sc.num_experts,
                              input_dim=sc.input_dim,
                              num_classes=sc.num_classes, seed=sc.seed)
    data_rng = np.random.default_rng(sc.seed + 17)
    return (task.sample(sc.train_tokens, data_rng),
            task.sample(sc.test_tokens, data_rng))


@contextmanager
def _no_run_recording():
    """Silence the run registry (for the fault-free twin run)."""
    previous = set_run(None)
    env = os.environ.pop("REPRO_RUNS_DIR", None)
    try:
        yield
    finally:
        if env is not None:
            os.environ["REPRO_RUNS_DIR"] = env
        set_run(previous)


def _ckpt_step(path: str) -> int:
    """Step encoded in a trainer checkpoint filename."""
    stem = os.path.basename(path)
    return int(stem.replace("ckpt_", "").replace(".npz", ""))


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------

def run_scenario(scenario: Scenario, fast: bool = False,
                 checkpoint_dir: str | None = None) -> ScenarioResult:
    """Execute one scenario; never raises on an SLO miss — the report
    carries the verdict (``repro scenario`` turns it into exit codes).
    Every performance-substrate price (recovery re-selection, brownout
    switch, elastic re-placement) is computed on the NDv4 model.
    """
    sc = scenario.resolved(fast)
    result = ScenarioResult(scenario=sc, fast=fast)

    ckpt_ctx = (tempfile.TemporaryDirectory(prefix="repro-scenario-")
                if checkpoint_dir is None else nullcontext(checkpoint_dir))
    with ckpt_ctx as ckpt_dir, LoopTelemetry(
            "scenario", seed=sc.seed, substrate="scenario",
            config={"name": sc.name, "steps": sc.steps,
                    "fast": fast}) as tel:
        result.run_id = tel.run_id
        tel.event("scenario", {
            "kind": "begin", "name": sc.name, "seed": sc.seed,
            "steps": sc.steps, "events": len(sc.events)}, 0)
        _execute(sc, result, ckpt_dir, tel)
        for check in result.checks:
            tel.event("slo_check", check.event_data(), -1)
        tel.summary({
            "scenario": sc.name,
            "passed": result.passed,
            "checks": len(result.checks),
            "checks_failed": sum(1 for c in result.checks
                                 if not c.passed),
            "final_train_loss": (result.losses[-1]
                                 if result.losses else None),
            "eval_accuracy": result.eval_accuracy,
        })
    return result


def _execute(sc: Scenario, result: ScenarioResult,
             checkpoint_dir: str, tel: LoopTelemetry) -> None:
    from repro.train.trainer import train_model

    train_batch, test_batch = _build_batches(sc)
    sim_cfg, sim_topo = _sim_shapes(sc)
    slo = sc.slo

    injections: dict[int, list] = {}
    for ev in sc.of_kind((ExpertDeath, NonFiniteStep)):
        injections.setdefault(ev.step, []).append(ev)
    recorded: set = set()
    recovery_walls: list[tuple[float, float]] = []  # (secs, deadline)
    catchup: dict = {}  # target/killed/deadline of a pending recovery

    def hook(step: int, model) -> None:
        if catchup and step >= catchup["target"]:
            # Back at the pre-fault step: that is the recovery wall.
            recovery_walls.append((perf_counter() - catchup["killed"],
                                   catchup["deadline"]))
            catchup.clear()
        for ev in injections.get(step, ()):
            # Replayed steps re-apply the injection (a failure is
            # idempotent, a poisoned step is skipped again) so the
            # resumed segment stays bit-identical; record the event
            # only the first time through.
            if isinstance(ev, ExpertDeath):
                # ``fail_expert`` emits the ``fault`` event itself (and
                # on a replay re-emits the one compaction dropped).
                model.fail_expert(ev.layer, ev.expert)
                entry = {"kind": "expert_death", "layer": ev.layer,
                         "expert": ev.expert}
                fault = None
            else:
                victim = next(p for p in model.parameters()
                              if p.requires_grad)
                victim.data.flat[0] = np.nan
                entry = {"kind": "nonfinite_step"}
                fault = {"kind": "nonfinite_injection"}
            if ev not in recorded:
                recorded.add(ev)
                result.timeline.append({"step": step, **entry})
                if fault is not None:
                    tel.event("fault", fault, step)

    def train_segment(until: int, resume: str | None):
        model = _build_model(sc)
        return train_model(
            model, train_batch, test_batch, steps=until,
            batch_size=sc.batch_size, seed=sc.seed,
            checkpoint_every=sc.checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            resume_from=resume, step_hook=hook)

    # -- training drive, split at every rank loss -----------------------
    model_slowdowns: list[float] = []
    replay_steps: list[int] = []
    segment_results = []
    all_ckpts: list[str] = []
    resume_path: str | None = None
    rank_losses = sc.of_kind(RankLoss)

    for rl in rank_losses:
        seg = train_segment(rl.step, resume_path)
        segment_results.append(seg)
        all_ckpts.extend(seg.checkpoint_paths)
        t_kill = perf_counter()
        resume_path = all_ckpts[-1]
        from_step = _ckpt_step(resume_path)
        replay_steps.append(rl.step - from_step)

        # Only a run the engine itself opened gets compacted — the
        # resumed trainer re-emits the replayed steps and the
        # compaction drops the originals (PR4 contract).
        tel.compact(from_step)
        tel.begin(rl.step)

        # Price the recovery on the simulated cluster, under whatever
        # brownout is active at the fault step (compound faults).
        factor, _ = sc.brownout_factor_at(rl.step)
        decision = reselect_strategy(sim_cfg, sim_topo,
                                     list(rl.ranks),
                                     link_degradation=factor)
        model_slowdowns.append(decision.slowdown)
        result.timeline.append({
            "step": rl.step, "kind": "rank_loss",
            "ranks": list(rl.ranks),
            "restore_from": from_step,
            "surviving_world": decision.surviving_world,
            "strategy": decision.cost.strategy.value,
            "a2a": decision.cost.a2a_algorithm.value,
            "model_slowdown": round(decision.slowdown, 4)})
        catchup.update(target=rl.step, killed=t_kill,
                       deadline=rl.recovery_deadline_s)

    final = train_segment(sc.steps, resume_path)
    segment_results.append(final)

    result.losses = list(final.losses)
    result.eval_accuracy = final.eval_accuracy

    # -- sim-only events: brownout switches, elastic resizes ------------
    a2a_switched = None
    for ev in sc.of_kind(LinkBrownout):
        healthy = best_strategy(sim_cfg, sim_topo)
        browned_topo = sim_topo.with_degraded_inter_link(ev.factor)
        candidates = feasible_a2a_algorithms(
            browned_topo, symmetric_nodes=not ev.asymmetric)
        browned = best_strategy(sim_cfg, browned_topo,
                                a2a_candidates=candidates)
        switched = (browned.a2a_algorithm != healthy.a2a_algorithm)
        a2a_switched = bool(a2a_switched) or switched
        slowdown = (browned.total_time / healthy.total_time
                    if healthy.total_time > 0 else 1.0)
        model_slowdowns.append(slowdown)
        result.timeline.append({
            "step": ev.step, "kind": "link_brownout",
            "factor": ev.factor, "asymmetric": ev.asymmetric,
            "a2a": f"{healthy.a2a_algorithm.value}->"
                   f"{browned.a2a_algorithm.value}",
            "model_slowdown": round(slowdown, 4)})
        result.timeline.append({
            "step": ev.end_step, "kind": "brownout_cleared",
            "a2a": healthy.a2a_algorithm.value})
        tel.event("fault", {
            "kind": "link_brownout", "factor": ev.factor,
            "asymmetric": ev.asymmetric}, ev.step)
        if switched:
            tel.event("strategy_switch", {
                "from": healthy.a2a_algorithm.value,
                "to": browned.a2a_algorithm.value,
                "slowdown": slowdown}, ev.step)
        tel.event("recovery", {
            "kind": "brownout_cleared",
            "a2a": healthy.a2a_algorithm.value}, ev.end_step)

    for ev in sc.of_kind(SimClockFault):
        schedule = build_pipeline_schedule(sim_cfg, sim_topo,
                                           PipelineStrategy(degree=2))
        horizon = simulate(schedule).makespan
        plan = FaultPlan(seed=sc.seed)
        if ev.straggler is not None:
            plan.stragglers.append(StragglerWindow(
                gpu=0, start=0.2 * horizon, end=0.7 * horizon,
                factor=ev.straggler))
        if ev.link is not None:
            plan.link_degradations.append(LinkDegradation(
                start=0.3 * horizon, end=0.8 * horizon, factor=ev.link))
        if ev.failure_timeout is not None:
            plan.op_failures.append(OpFailure(
                time=0.4 * horizon, gpu=0,
                timeout=ev.failure_timeout * horizon))
        faulted = simulate(schedule, faults=plan)
        slowdown = faulted.makespan / horizon
        model_slowdowns.append(slowdown)
        info = {"kind": "sim_clock_fault", "plan": plan.describe(),
                "injected": faulted.faults_injected,
                "recovered": faulted.faults_recovered}
        result.timeline.append({"step": ev.step, **info,
                                "model_slowdown": round(slowdown, 4)})
        tel.event("fault", {**info, "slowdown": slowdown}, ev.step)

    replacement_total = 0.0
    moved_total = 0.0
    scaleup_ratios: list[float] = []
    world = sc.sim_world
    resizes = sc.of_kind(ElasticResize)
    for ev in resizes:
        big = ndv4_topology(max(world, ev.new_world))
        seconds, moved = price_replacement(
            world, ev.new_world, sc.sim_experts, big,
            sim_cfg.expert_parameter_bytes)
        replacement_total += seconds
        moved_total += moved
        old_tput = _throughput(
            sim_cfg.with_(world_size=world,
                          experts_per_gpu=sc.sim_experts / world),
            ndv4_topology(world))
        new_tput = _throughput(
            sim_cfg.with_(world_size=ev.new_world,
                          experts_per_gpu=sc.sim_experts / ev.new_world),
            ndv4_topology(ev.new_world))
        ratio = new_tput / old_tput if old_tput > 0 else 1.0
        if ev.new_world > world:
            scaleup_ratios.append(ratio)
        result.timeline.append({
            "step": ev.step, "kind": "elastic_resize",
            "world": f"{world}->{ev.new_world}",
            "moved_mb": round(moved / 1e6, 3),
            "replace_s": round(seconds, 6),
            "throughput_ratio": round(ratio, 4)})
        tel.event("scenario", {
            "kind": "elastic_resize", "old_world": world,
            "new_world": ev.new_world, "moved_bytes": moved,
            "replacement_seconds": seconds,
            "throughput_ratio": ratio}, ev.step)
        world = ev.new_world

    # -- fault-free twin for the loss-parity bound ----------------------
    loss_parity = None
    if slo.max_loss_parity is not None:
        with _no_run_recording():
            twin = train_model(_build_model(sc), train_batch,
                               test_batch, steps=sc.steps,
                               batch_size=sc.batch_size, seed=sc.seed)
        loss_parity = abs(final.final_train_loss
                          - twin.final_train_loss)

    # -- step-time ratio across the first fault -------------------------
    step_time_ratio = None
    if rank_losses and segment_results[0].step_walls:
        first_fault = rank_losses[0].step
        last_fault = rank_losses[-1].step
        pre = [w for s, w in segment_results[0].step_walls.items()
               if s < first_fault]
        post = [w for s, w in final.step_walls.items()
                if s > last_fault]
        if pre and post:
            step_time_ratio = median(post) / median(pre)

    # -- SLO report -----------------------------------------------------
    checks = result.checks
    for i, (secs, deadline) in enumerate(recovery_walls):
        checks.append(SLOCheck(f"recovery_deadline_{i}", secs,
                               deadline, "<=", measured=True))
    if slo.max_step_time_ratio is not None \
            and step_time_ratio is not None:
        checks.append(SLOCheck("step_time_ratio", step_time_ratio,
                               slo.max_step_time_ratio, "<=",
                               measured=True))
    final_loss = final.final_train_loss
    if slo.loss_band is not None:
        lo, hi = slo.loss_band
        checks.append(SLOCheck("final_loss_max", final_loss, hi, "<="))
        checks.append(SLOCheck("final_loss_min", final_loss, lo, ">="))
    if loss_parity is not None:
        checks.append(SLOCheck("loss_parity", loss_parity,
                               slo.max_loss_parity, "<="))
    if slo.max_model_slowdown is not None and model_slowdowns:
        checks.append(SLOCheck("model_slowdown",
                               max(model_slowdowns),
                               slo.max_model_slowdown, "<="))
    if slo.max_replacement_seconds is not None:
        checks.append(SLOCheck("replacement_seconds",
                               replacement_total,
                               slo.max_replacement_seconds, "<="))
    if slo.min_scaleup_throughput_ratio is not None and scaleup_ratios:
        checks.append(SLOCheck("scaleup_throughput_ratio",
                               min(scaleup_ratios),
                               slo.min_scaleup_throughput_ratio, ">="))
    if slo.require_a2a_switch:
        checks.append(SLOCheck("a2a_switched",
                               1.0 if a2a_switched else 0.0, 1.0,
                               ">="))
    nonfinite = sum(0 if np.isfinite(v) else 1 for v in final.losses)
    if slo.require_finite:
        checks.append(SLOCheck("nonfinite_steps", float(nonfinite),
                               0.0, "<="))
    if slo.max_skipped_steps is not None:
        checks.append(SLOCheck("skipped_steps",
                               float(len(final.skipped_steps)),
                               float(slo.max_skipped_steps), "<="))

    # -- metrics for BENCH_scenarios.json -------------------------------
    metrics = result.metrics
    metrics.append(Metric("slo_pass", 1.0 if result.passed else 0.0,
                          kind="model", higher_is_better=True,
                          tolerance=0.0))
    if np.isfinite(final_loss):  # a NaN run fails nonfinite_steps instead
        metrics.append(Metric("final_loss", final_loss, kind="model",
                              higher_is_better=False, tolerance=0.30))
    metrics.append(Metric("nonfinite_steps", float(nonfinite),
                          kind="model", higher_is_better=False,
                          tolerance=0.0))
    if sc.of_kind(NonFiniteStep):
        metrics.append(Metric("skipped_steps",
                              float(len(final.skipped_steps)),
                              unit="steps", kind="model",
                              higher_is_better=None, tolerance=0.0))
    if model_slowdowns:
        metrics.append(Metric("model_slowdown", max(model_slowdowns),
                              unit="x", kind="model",
                              higher_is_better=False, tolerance=0.05))
    for i, n in enumerate(replay_steps):
        metrics.append(Metric(f"replay_steps_{i}", float(n),
                              unit="steps", kind="model",
                              higher_is_better=False, tolerance=0.0))
    for i, (secs, _) in enumerate(recovery_walls):
        metrics.append(Metric(f"recovery_seconds_{i}", secs, unit="s",
                              kind="measured", higher_is_better=False))
    if step_time_ratio is not None:
        metrics.append(Metric("step_time_ratio", step_time_ratio,
                              unit="x", kind="measured",
                              higher_is_better=False))
    if loss_parity is not None:
        metrics.append(Metric("loss_parity", loss_parity,
                              kind="model", higher_is_better=False,
                              tolerance=0.05))
    if a2a_switched is not None:
        metrics.append(Metric("a2a_switched",
                              1.0 if a2a_switched else 0.0,
                              kind="model", higher_is_better=True,
                              tolerance=0.0))
    if resizes:
        metrics.append(Metric("replacement_seconds", replacement_total,
                              unit="s", kind="model",
                              higher_is_better=False, tolerance=0.05))
        metrics.append(Metric("replacement_moved_mb",
                              moved_total / 1e6, unit="MB",
                              kind="model", higher_is_better=None,
                              tolerance=0.01))
    if scaleup_ratios:
        metrics.append(Metric("scaleup_throughput_ratio",
                              min(scaleup_ratios), unit="x",
                              kind="model", higher_is_better=True,
                              tolerance=0.05))
