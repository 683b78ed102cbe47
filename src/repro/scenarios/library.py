"""The named, committed chaos scenarios (``repro scenario --list``).

Five scenarios cover the resilience surface the paper's adaptive
machinery has to keep working under:

* ``rank_loss_deadline`` — a rank dies mid-run; checkpoint restore plus
  lost-work replay must beat a wall-clock deadline, post-recovery step
  time must stay near pre-fault, and the modeled re-selection on the
  shrunken (asymmetric) cluster must stay within a slowdown budget.
* ``expert_death_loss_slo`` — two experts die in different layers;
  survivor-renormalized gating must keep the final loss within a
  parity bound of the fault-free twin run.
* ``link_brownout_switch`` — an asymmetric inter-node brownout forces
  the All-to-All selector off 2DH onto linear (Tutel Figure 20 logic
  under HetuMoE-style degraded-fabric conditions) and back when the
  window closes.
* ``elastic_scale`` — membership grows 16→32 then shrinks to 8; every
  re-placement's shard movement is priced through the cluster
  simulator and scale-up must actually buy throughput.
* ``compound_faults`` — an expert dies, a poisoned weight makes one step
  non-finite (the trainer's guard must skip exactly that step) and the
  simulated pipeline segment runs under a straggler, a degraded link
  window and an op failure with retry.

SLO bounds on deterministic (model) quantities are tight; wall-clock
bounds are deliberately generous so shared CI machines do not flake.
"""

from __future__ import annotations

from repro.scenarios.spec import (
    ElasticResize,
    ExpertDeath,
    LinkBrownout,
    NonFiniteStep,
    RankLoss,
    Scenario,
    SimClockFault,
    SLOSpec,
)

__all__ = ["SCENARIOS", "get_scenario"]


SCENARIOS: dict[str, Scenario] = {}


def _register(sc: Scenario) -> Scenario:
    if sc.name in SCENARIOS:
        raise ValueError(f"duplicate scenario name {sc.name!r}")
    SCENARIOS[sc.name] = sc
    return sc


_register(Scenario(
    name="rank_loss_deadline",
    title="rank dies at step 9; restore + replay under a deadline",
    seed=11,
    steps=16,
    fast_steps=12,
    checkpoint_every=4,
    events=(RankLoss(step=9, ranks=(3,), recovery_deadline_s=20.0),),
    slo=SLOSpec(
        max_step_time_ratio=3.0,
        loss_band=(0.5, 3.9),
        max_model_slowdown=3.0,
    ),
))

_register(Scenario(
    name="expert_death_loss_slo",
    title="two experts die in different layers; loss parity vs the "
          "fault-free twin",
    seed=5,
    steps=16,
    fast_steps=12,
    checkpoint_every=4,
    num_blocks=4,  # two MoE layers, so the deaths hit distinct gates
    events=(ExpertDeath(step=4, layer=0, expert=2),
            ExpertDeath(step=7, layer=1, expert=1)),
    slo=SLOSpec(
        max_loss_parity=0.75,
        loss_band=(0.5, 3.1),
    ),
))

_register(Scenario(
    name="link_brownout_switch",
    title="asymmetric inter-node brownout forces the 2DH->linear "
          "All-to-All switch",
    seed=3,
    steps=12,
    fast_steps=10,
    checkpoint_every=4,
    sim_world=64,
    sim_experts=32,
    events=(LinkBrownout(step=3, end_step=8, factor=0.25,
                         asymmetric=True),),
    slo=SLOSpec(
        require_a2a_switch=True,
        max_model_slowdown=4.0,
        loss_band=(0.5, 3.4),
    ),
))

_register(Scenario(
    name="elastic_scale",
    title="membership 16->32->8; re-placement traffic priced through "
          "the simulator",
    seed=7,
    steps=12,
    fast_steps=10,
    checkpoint_every=4,
    sim_world=16,
    sim_experts=8,
    events=(ElasticResize(step=3, new_world=32),
            ElasticResize(step=8, new_world=8)),
    slo=SLOSpec(
        max_replacement_seconds=1.0,
        min_scaleup_throughput_ratio=1.2,
        loss_band=(0.5, 3.3),
    ),
))

_register(Scenario(
    name="compound_faults",
    title="expert death + non-finite step + straggler/link/op-failure "
          "on the simulated clock",
    seed=0,
    steps=16,
    fast_steps=12,
    checkpoint_every=4,
    batch_size=32,
    train_tokens=96,
    test_tokens=96,
    events=(ExpertDeath(step=4, layer=0, expert=3),
            NonFiniteStep(step=8),
            SimClockFault(step=8, straggler=0.3, link=0.5,
                          failure_timeout=0.05)),
    slo=SLOSpec(
        max_skipped_steps=1,
        max_model_slowdown=2.0,
        loss_band=(0.5, 2.6),
    ),
))


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(
            f"unknown scenario {name!r}; known: {known}") from None
