"""Declarative chaos-scenario specifications.

A :class:`Scenario` is pure data: a seed, a step count, a timeline of
fault events, and an :class:`SLOSpec` of pass/fail bounds.  The engine
(:mod:`repro.scenarios.engine`) interprets it against both substrates —
the functional trainer actually lives through the events (checkpoint
restore on rank loss, :meth:`repro.nn.models.MoEClassifier.fail_expert`
on expert death) while the cluster simulator prices their performance
consequences (strategy re-selection, brownout algorithm switches,
elastic re-placement traffic).

Determinism rules
-----------------
Everything derived from ``(scenario, seed)`` alone — final loss, loss
parity against the fault-free twin, modeled slowdowns, simulated
re-placement makespans, SLO verdicts on those values — is bit-stable
across runs on one machine and lands in ``BENCH_scenarios.json`` as
``kind="model"`` metrics.  Wall-clock quantities (recovery seconds,
step-time ratios) are ``kind="measured"`` and exempt from both the
determinism contract and the ``repro regress`` gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "RankLoss",
    "ExpertDeath",
    "LinkBrownout",
    "ElasticResize",
    "NonFiniteStep",
    "SimClockFault",
    "SLOSpec",
    "Scenario",
]


@dataclass(frozen=True)
class RankLoss:
    """Ranks die at ``step``; training must restore from the latest
    checkpoint and re-reach the pre-fault step within
    ``recovery_deadline_s`` wall-clock seconds (restore + lost-work
    replay both count against the deadline)."""

    step: int
    ranks: tuple[int, ...] = (0,)
    recovery_deadline_s: float = 30.0

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValueError(f"rank loss step must be >= 1, got {self.step}")
        if not self.ranks:
            raise ValueError("rank loss needs at least one rank")
        if self.recovery_deadline_s <= 0:
            raise ValueError("recovery_deadline_s must be > 0")


@dataclass(frozen=True)
class ExpertDeath:
    """Expert ``expert`` of MoE layer ``layer`` dies at ``step``;
    gating renormalizes over the survivors and training continues."""

    step: int
    layer: int = 0
    expert: int = 0

    def __post_init__(self) -> None:
        if self.step < 0 or self.layer < 0 or self.expert < 0:
            raise ValueError("step, layer, expert must all be >= 0")


@dataclass(frozen=True)
class LinkBrownout:
    """Inter-node fabric derated to ``factor`` of nominal bandwidth in
    ``[step, end_step)``.  ``asymmetric=True`` models the degradation
    hitting one node's NICs unevenly, which rules the hierarchical 2DH
    All-to-All out until the window closes (its aggregation phases
    assume equal participants per node) — the Tutel 2DH-vs-linear
    switch under HetuMoE-style commodity fabric conditions."""

    step: int
    end_step: int
    factor: float = 0.25
    asymmetric: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {self.factor}")
        if self.step < 0 or self.end_step <= self.step:
            raise ValueError(
                f"need 0 <= step < end_step, got [{self.step}, "
                f"{self.end_step})")


@dataclass(frozen=True)
class ElasticResize:
    """Cluster membership changes to ``new_world`` GPUs at ``step``.

    The engine re-derives the expert placement on the new world and
    prices the shard movement (every shard a new host lacks is copied
    from a current host) through the cluster simulator.
    """

    step: int
    new_world: int

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        if self.new_world < 1:
            raise ValueError(
                f"new_world must be >= 1, got {self.new_world}")


@dataclass(frozen=True)
class NonFiniteStep:
    """One trainable weight is poisoned with NaN before ``step``; the
    trainer's non-finite guard must roll back and skip exactly it."""

    step: int

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")


@dataclass(frozen=True)
class SimClockFault:
    """Simulated-clock faults on the priced pipeline segment.

    Its GPU runs at ``straggler`` of nominal rate over 20-70% of the
    fault-free makespan, comm ops at ``link`` of theirs over 30-80%,
    and whatever is active at 40% dies and re-runs after a detection
    timeout of ``failure_timeout`` x makespan.  ``None`` leaves a fault
    out (all three: the empty plan); ``step`` only places the event on
    the training timeline.
    """

    step: int
    straggler: float | None = None
    link: float | None = None
    failure_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        for name in ("straggler", "link"):
            factor = getattr(self, name)
            if factor is not None and not 0.0 < factor <= 1.0:
                raise ValueError(
                    f"{name} factor must be in (0, 1], got {factor}")
        if self.failure_timeout is not None and self.failure_timeout < 0:
            raise ValueError("failure_timeout must be >= 0, got "
                             f"{self.failure_timeout}")


@dataclass(frozen=True)
class SLOSpec:
    """Pass/fail bounds evaluated after the timeline has played out.

    ``None`` disables a bound.  Measured (wall-clock) bounds should be
    generous — they run on shared CI machines; the deterministic model
    bounds are the tight ones.
    """

    # measured (wall-clock) bounds
    max_step_time_ratio: float | None = None   # post/pre-fault median
    # model (deterministic) bounds
    loss_band: tuple[float, float] | None = None
    max_loss_parity: float | None = None       # |loss - twin loss|
    max_model_slowdown: float | None = None    # worst modeled ratio
    max_replacement_seconds: float | None = None
    min_scaleup_throughput_ratio: float | None = None
    require_a2a_switch: bool = False
    require_finite: bool = True
    max_skipped_steps: int | None = 0

    def __post_init__(self) -> None:
        if self.loss_band is not None:
            lo, hi = self.loss_band
            if not lo <= hi:
                raise ValueError(
                    f"loss_band must be (lo, hi) with lo <= hi, "
                    f"got {self.loss_band}")
        for name in ("max_step_time_ratio", "max_loss_parity",
                     "max_model_slowdown", "max_replacement_seconds",
                     "min_scaleup_throughput_ratio"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class Scenario:
    """One seeded chaos timeline plus the SLOs it must meet.

    The training-shape fields describe the functional-substrate toy
    model; ``sim_world``/``sim_experts`` describe the cluster the
    performance consequences are priced on (they are independent
    scales by design — the trainer proves behaviour, the simulator
    prices it at paper scale).
    """

    name: str
    title: str
    seed: int
    steps: int
    events: tuple = ()
    slo: SLOSpec = field(default_factory=SLOSpec)
    # functional substrate shape
    num_experts: int = 4
    top_k: int = 2
    num_blocks: int = 2
    input_dim: int = 16
    model_dim: int = 24
    hidden_dim: int = 48
    num_classes: int = 4
    batch_size: int = 64
    train_tokens: int = 256
    test_tokens: int = 128
    checkpoint_every: int = 4
    # performance substrate shape
    sim_world: int = 16
    sim_experts: int = 8
    # step count when run with --fast (None = same as ``steps``)
    fast_steps: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.sim_world < 1 or self.sim_experts < 1:
            raise ValueError("sim_world and sim_experts must be >= 1")
        if self.fast_steps is not None and self.fast_steps < 2:
            raise ValueError("fast_steps must be >= 2")
        self._validate_events(self.steps)
        if self.fast_steps is not None:
            self._validate_events(self.fast_steps)

    def _validate_events(self, horizon: int) -> None:
        for ev in self.events:
            if isinstance(ev, RankLoss):
                if not self.checkpoint_every <= ev.step < horizon:
                    raise ValueError(
                        f"rank loss at step {ev.step} needs a prior "
                        f"checkpoint and must precede step {horizon}")
            elif not isinstance(ev, (ExpertDeath, LinkBrownout,
                                     ElasticResize, NonFiniteStep,
                                     SimClockFault)):
                raise TypeError(
                    f"unknown scenario event {type(ev).__name__}")
            elif ev.step >= horizon:
                raise ValueError(
                    f"{type(ev).__name__} at step {ev.step} is past "
                    f"the {horizon}-step horizon")
            elif isinstance(ev, ExpertDeath):
                # Every other block is MoE (the SwinV2-MoE pattern),
                # so num_blocks blocks hold num_blocks // 2 MoE layers.
                if ev.layer >= self.num_blocks // 2:
                    raise ValueError(
                        f"expert death layer {ev.layer} out of range "
                        f"for {self.num_blocks // 2} MoE layer(s)")
                if ev.expert >= self.num_experts:
                    raise ValueError(
                        f"expert death expert {ev.expert} out of range "
                        f"for {self.num_experts} experts")
        losses = [ev.step for ev in self.of_kind(RankLoss)]
        if len(losses) != len(set(losses)):
            raise ValueError("at most one rank loss per step")

    def resolved(self, fast: bool = False) -> "Scenario":
        """The concrete spec to execute (``--fast`` shrinks steps)."""
        if not fast or self.fast_steps is None \
                or self.fast_steps == self.steps:
            return self
        return replace(self, steps=self.fast_steps, fast_steps=None)

    def of_kind(self, kind: type | tuple[type, ...]) -> list:
        """This timeline's events of the given kind(s), in step order."""
        return sorted((ev for ev in self.events if isinstance(ev, kind)),
                      key=lambda ev: ev.step)

    def brownout_factor_at(self, step: int) -> tuple[float, bool]:
        """(bandwidth factor, asymmetric?) of the fabric at ``step``."""
        factor, asymmetric = 1.0, False
        for ev in self.of_kind(LinkBrownout):
            if ev.step <= step < ev.end_step:
                factor = min(factor, ev.factor)
                asymmetric = asymmetric or ev.asymmetric
        return factor, asymmetric
