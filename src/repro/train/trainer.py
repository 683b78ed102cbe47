"""Training / evaluation loops for the accuracy experiments.

Resilience features (see DESIGN.md "Resilience"):

* **Checkpoint/restore** — ``checkpoint_every``/``checkpoint_dir``
  periodically snapshot parameters, Adam state, RNG state and history
  via :mod:`repro.resilience.checkpoint`; ``resume_from`` continues a
  run *bit-identically* to the uninterrupted one.
* **Non-finite guard** — a NaN/Inf loss or gradient norm skips the
  step before the optimizer runs, restores the last-good parameters
  (by writing back what the step hook wrote: nothing else between two
  optimizer steps writes them), and records the event
  (``train.step_skipped``) instead of poisoning the run.
* **Graceful expert degradation** — ``step_hook`` lets a fault plan
  call :meth:`MoEClassifier.fail_expert` mid-run; gating renormalizes
  over the surviving experts and training continues.

Observability (see DESIGN.md "Run registry"): the loop publishes each
step once to one :class:`repro.obs.loop.LoopTelemetry`.  With
``REPRO_RUNS_DIR`` set (or a run already active) that streams
``train_begin`` / ``routing`` / ``step`` / ``step_skipped`` /
``ckpt_saved`` / ``ckpt_restored`` / ``eval`` events into a run
directory and evaluates the alert rule pack every step; firing alerts
land in ``TrainResult.health_alerts`` and the run's event stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from typing import Callable

from repro.autograd.functional import cross_entropy
from repro.autograd.optim import Adam, clip_grad_norm
from repro.autograd.tensor import Tensor
from repro.nn.models import MoEClassifier
from repro.nn.modules import Module
from repro.obs import CAT_FAULT, CAT_CKPT, CAT_TRAIN
from repro.obs import instant as _instant
from repro.obs import span as _span
from repro.obs.loop import LoopTelemetry
from repro.train.data import TokenBatch

__all__ = [
    "TrainResult",
    "train_model",
    "evaluate",
    "linear_probe_accuracy",
]


@dataclass
class TrainResult:
    """Training history plus final evaluation metrics."""

    losses: list[float] = field(default_factory=list)
    train_accuracies: list[float] = field(default_factory=list)
    eval_accuracy: float = 0.0
    final_train_loss: float = 0.0
    final_train_accuracy: float = 0.0
    # Per-step needed capacity factor of every MoE layer (Figure 1).
    capacity_traces: dict[int, list[float]] = field(default_factory=dict)
    # Steps dropped by the non-finite guard (resilience path).
    skipped_steps: list[int] = field(default_factory=list)
    # Checkpoint files written by this run, in order.
    checkpoint_paths: list[str] = field(default_factory=list)
    # Firing alert transitions (kind / step / severity / value /
    # threshold / layer / expert), in tick order.
    health_alerts: list = field(default_factory=list)
    # Run directory id when a run recorded this training, else None.
    run_id: str | None = None
    # Wall-clock seconds per step *executed by this call* (restored
    # history has no walls), keyed by step index; skipped steps count
    # too.  The scenario engine's step-time SLOs read these.
    step_walls: dict[int, float] = field(default_factory=dict)


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


def evaluate(model: Module, batch: TokenBatch) -> float:
    """Top-1 accuracy on a batch (no gradient bookkeeping needed)."""
    logits, _ = model(Tensor(batch.x))
    return _accuracy(logits.data, batch.y)


#: Weight of the auxiliary load-balance loss, and the global gradient
#: norm each step is clipped to.
AUX_WEIGHT = 0.01
GRAD_CLIP = 5.0


def train_model(model: Module, train: TokenBatch, test: TokenBatch,
                steps: int = 300, batch_size: int = 256,
                lr: float = 3e-3, seed: int = 0,
                top_k_schedule: Callable[[int], float] | None = None,
                capacity_schedule: Callable[[int], float] | None = None,
                checkpoint_every: int | None = None,
                checkpoint_dir: str | None = None,
                resume_from: str | None = None,
                step_hook: Callable[[int, Module], None] | None = None
                ) -> TrainResult:
    """Train with Adam on cross-entropy + auxiliary load-balance loss.

    Records the runtime needed-capacity-factor trace of every MoE layer
    so the Figure 1 dynamic-workload plot comes from a *real* training
    run of the toy model.  ``top_k_schedule`` / ``capacity_schedule``
    realize the dynamic-sparsity feature of paper Section 4.1: the
    per-iteration ``k`` and ``f`` of every MoE layer follow the given
    schedules (see :mod:`repro.train.schedules`).

    ``checkpoint_every`` writes a checkpoint to ``checkpoint_dir``
    every N completed steps; ``resume_from`` restores one and continues
    bit-identically (the model must be constructed from the same seed).
    ``step_hook(step, model)`` runs before each step — the scenario
    engine uses it to fail an expert or poison a weight mid-run.  The
    non-finite guard skips NaN/Inf steps and rolls parameters back to
    the last good state instead of letting the divergence propagate.

    With a run recording (an active run, or ``REPRO_RUNS_DIR`` set) the
    default alert rule pack is evaluated every step; firing transitions
    accumulate in ``TrainResult.health_alerts``.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
    scheduled = top_k_schedule is not None or capacity_schedule is not None
    if scheduled:
        from repro.train.schedules import apply_sparsity_schedules
    if checkpoint_every is not None or resume_from is not None:
        from repro.resilience.checkpoint import (
            capture_training_state,
            load_checkpoint,
            restore_training_state,
            save_checkpoint,
        )
    with LoopTelemetry(
            "train", seed=seed, default_rules={},
            config={"steps": steps, "batch_size": batch_size, "lr": lr,
                    "aux_weight": AUX_WEIGHT, "grad_clip": GRAD_CLIP,
                    "resumed": resume_from is not None},
    ) as tel:
        rng = np.random.default_rng(seed)
        params = [p for p in model.parameters() if p.requires_grad]
        if not params:
            raise ValueError("model has no trainable parameters")
        optimizer = Adam(params, lr=lr)
        result = TrainResult(run_id=tel.run_id, health_alerts=tel.fired)
        moe_layers = (model.moe_layers()
                      if isinstance(model, MoEClassifier) else [])
        for i in range(len(moe_layers)):
            result.capacity_traces[i] = []

        start_step = 0
        if resume_from is not None:
            ckpt = load_checkpoint(resume_from)
            if ckpt.step >= steps:
                raise ValueError(
                    f"checkpoint is at step {ckpt.step}, nothing left of "
                    f"the requested {steps} steps")
            restore_training_state(model, optimizer, rng, ckpt)
            start_step = ckpt.step
            result.losses = list(ckpt.losses)
            result.train_accuracies = list(ckpt.train_accuracies)
            result.skipped_steps = list(ckpt.skipped_steps)
            for i, trace in ckpt.capacity_traces.items():
                result.capacity_traces[i] = list(trace)
            tel.event("ckpt_restored",
                      {"step": start_step, "path": resume_from}, start_step)

        def checkpoint_boundary(completed: int) -> None:
            if checkpoint_every is None or completed % checkpoint_every:
                return
            os.makedirs(checkpoint_dir, exist_ok=True)
            path = os.path.join(checkpoint_dir,
                                f"ckpt_{completed:06d}.npz")
            save_checkpoint(
                capture_training_state(model, optimizer, rng,
                                       completed, result=result), path)
            result.checkpoint_paths.append(path)
            saved = {"step": completed, "path": path}
            _instant("saved", CAT_CKPT, args=saved)
            tel.event("ckpt_saved", saved, completed)

        tel.event("train_begin", {"steps": steps, "start_step": start_step,
                                  "seed": seed}, start_step)

        n = len(train)
        for step in range(start_step, steps):
            tel.begin(step)
            wall_start = perf_counter()
            if step_hook is not None:
                # ``Adam.step`` is the only writer of the moments, the
                # step count and (besides this hook) the parameters, and
                # it runs only after both guards pass: a rolled-back step
                # needs back only what the hook wrote, so the guard
                # records the store around this call alone.
                optimizer.snapshot()
                step_hook(step, model)
                optimizer.shrink_snapshot()
            with _span("step", CAT_TRAIN):
                if scheduled:
                    apply_sparsity_schedules(model, step,
                                             top_k=top_k_schedule,
                                             capacity_factor=capacity_schedule)
                idx = rng.integers(0, n, min(batch_size, n))
                xb, yb = train.x[idx], train.y[idx]
                with _span("forward", CAT_TRAIN):
                    logits, l_aux = model(Tensor(xb))
                    loss = cross_entropy(logits, yb) + l_aux * AUX_WEIGHT
                bad = not np.isfinite(loss.data).all()
                if not bad:
                    with _span("backward", CAT_TRAIN):
                        optimizer.zero_grad()
                        loss.backward()
                    with _span("optimizer", CAT_TRAIN):
                        # One pass over the gradients serves the clip
                        # and the guard: a NaN/Inf anywhere in them
                        # makes the norm non-finite.
                        gnorm = clip_grad_norm(params, GRAD_CLIP)
                        bad = not np.isfinite(gnorm)
                        if not bad:
                            optimizer.step()
                if bad:
                    # Non-finite guard: drop the step and roll back to the
                    # last finite state so the divergence cannot compound.
                    optimizer.rollback()
                    result.skipped_steps.append(step)
                    result.step_walls[step] = perf_counter() - wall_start
                    _instant("step_skipped", CAT_TRAIN, args={"step": step})
                    _instant("recovered", CAT_FAULT, args={
                        "kind": "nonfinite_step", "step": step})
                    tel.tick(step, "step_skipped", {"step": step})
                    # A skipped boundary still checkpoints: the rolled-
                    # back state is the last good one.
                    checkpoint_boundary(step + 1)
                    continue

            result.step_walls[step] = perf_counter() - wall_start
            loss_val = float(loss.data)
            acc = _accuracy(logits.data, yb)
            result.losses.append(loss_val)
            result.train_accuracies.append(acc)
            for i, layer in enumerate(moe_layers):
                result.capacity_traces[i].append(
                    layer.last_routing_stats.needed_capacity_factor)
            tel.tick(step, "step",
                     {"loss": loss_val, "accuracy": acc, "grad_norm": gnorm},
                     layers=moe_layers, counts={"train.steps": 1},
                     gauges={"train.loss": loss_val})

            checkpoint_boundary(step + 1)

        # Window-averaged final metrics: clamp the window when fewer than
        # 20 steps contributed (short runs, or steps lost to the guard) so
        # the mean never runs over an empty slice.
        if result.losses:
            window = min(20, len(result.losses))
            result.final_train_loss = float(
                np.mean(result.losses[-window:]))
        if result.train_accuracies:
            window = min(20, len(result.train_accuracies))
            result.final_train_accuracy = float(
                np.mean(result.train_accuracies[-window:]))
        # Step -1 = the held-out evaluation: no tick, so its forward
        # publishes no routing (events and gauges stay the last step's).
        tel.begin(-1)
        result.eval_accuracy = evaluate(model, test)
        tel.event("eval", {"accuracy": result.eval_accuracy}, -1)
        tel.summary({
            "steps": steps,
            "final_train_loss": result.final_train_loss,
            "final_train_accuracy": result.final_train_accuracy,
            "eval_accuracy": result.eval_accuracy,
            "skipped_steps": len(result.skipped_steps),
            "alerts": len(result.health_alerts),
        })
    return result


def linear_probe_accuracy(model: Module, probe_train: TokenBatch,
                          probe_test: TokenBatch) -> float:
    """Few-shot linear evaluation on frozen features.

    Fits a ridge-regression one-vs-all classifier on the penultimate
    features (closed form — no iterative training needed for a probe)
    and reports top-1 accuracy, mirroring the paper's 5-shot protocol.
    The ridge penalty is 1e-2.
    """
    feats_train = model.features(Tensor(probe_train.x)).data
    feats_test = model.features(Tensor(probe_test.x)).data
    classes = int(max(probe_train.y.max(), probe_test.y.max())) + 1
    targets = -np.ones((len(probe_train), classes))
    targets[np.arange(len(probe_train)), probe_train.y] = 1.0

    d = feats_train.shape[1]
    gram = feats_train.T @ feats_train + 1e-2 * np.eye(d)
    weights = np.linalg.solve(gram, feats_train.T @ targets)
    scores = feats_test @ weights
    return _accuracy(scores, probe_test.y)
