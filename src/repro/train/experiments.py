"""End-to-end accuracy experiments (paper Section 5.3.2 / 5.3.3 / 5.3.4).

Each function runs a complete train/evaluate protocol on the synthetic
clustered-token task and returns structured results that the benchmark
harness renders next to the paper's numbers.  The experiments mirror:

* Table 9/11 — sparse SwinV2-MoE vs the dense counterpart, with an
  expert-count sweep;
* Table 10 — downstream fine-tuning with tuned vs frozen MoE layers;
* Table 12 — top-k and train/inference capacity-factor ablation;
* Figure 25 — batch prioritized routing vs plain routing across
  inference capacity factors;
* Table 13 — cosine vs linear router.

The default scale (steps/sizes) is chosen so each experiment runs in
seconds-to-minutes on a laptop CPU; pass a larger ``ExperimentScale``
to tighten the error bars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.models import DenseClassifier, MoEClassifier
from repro.train.data import ClusteredTokenTask, few_shot_split
from repro.train.trainer import (
    TrainResult,
    evaluate,
    linear_probe_accuracy,
    train_model,
)

__all__ = [
    "ExperimentScale",
    "AccuracyResult",
    "make_task",
    "train_dense",
    "train_moe",
    "dense_vs_sparse",
    "expert_count_sweep",
    "bpr_sweep",
    "router_comparison",
    "finetune_frozen_vs_tuned",
    "topk_capacity_ablation",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs trading fidelity for runtime."""

    train_samples: int = 8192
    test_samples: int = 4096
    steps: int = 500
    batch_size: int = 512
    lr: float = 5e-3
    num_clusters: int = 32
    input_dim: int = 16
    num_classes: int = 8
    model_dim: int = 32
    hidden_dim: int = 64
    num_blocks: int = 2
    noise: float = 0.5
    seed: int = 0


SMOKE = ExperimentScale(train_samples=1024, test_samples=512, steps=40,
                        batch_size=256, num_clusters=8)


@dataclass
class AccuracyResult:
    """One trained model's evaluation summary."""

    name: str
    eval_accuracy: float
    final_train_loss: float
    probe_accuracy: float | None = None
    params: int = 0
    history: TrainResult | None = None


def make_task(scale: ExperimentScale) -> ClusteredTokenTask:
    return ClusteredTokenTask(
        num_clusters=scale.num_clusters, input_dim=scale.input_dim,
        num_classes=scale.num_classes, noise=scale.noise,
        seed=scale.seed)


def _data(task: ClusteredTokenTask, scale: ExperimentScale):
    train = task.sample(scale.train_samples,
                        np.random.default_rng(scale.seed + 1))
    test = task.sample(scale.test_samples,
                       np.random.default_rng(scale.seed + 2))
    return train, test


def _probe(model, test, scale: ExperimentScale) -> float | None:
    try:
        probe_train, probe_test = few_shot_split(test, shots=5,
                                                 seed=scale.seed)
    except ValueError:
        return None
    return linear_probe_accuracy(model, probe_train, probe_test)


def train_dense(scale: ExperimentScale,
                task: ClusteredTokenTask | None = None) -> AccuracyResult:
    """The dense counterpart model (SwinV2-B analogue)."""
    task = task or make_task(scale)
    train, test = _data(task, scale)
    model = DenseClassifier(scale.input_dim, scale.model_dim,
                            scale.hidden_dim, scale.num_classes,
                            scale.num_blocks,
                            np.random.default_rng(scale.seed))
    result = train_model(model, train, test, steps=scale.steps,
                         batch_size=scale.batch_size, lr=scale.lr,
                         seed=scale.seed)
    return AccuracyResult(
        name="dense", eval_accuracy=result.eval_accuracy,
        final_train_loss=result.final_train_loss,
        probe_accuracy=_probe(model, test, scale),
        params=model.num_parameters(), history=result)


def train_moe(scale: ExperimentScale, num_experts: int | None = None,
              top_k: int = 1, capacity_factor: float = 1.25,
              router: str = "linear", batch_prioritized: bool = False,
              task: ClusteredTokenTask | None = None,
              return_model: bool = False):
    """Train one MoE classifier configuration and evaluate it."""
    task = task or make_task(scale)
    num_experts = num_experts or scale.num_clusters
    train, test = _data(task, scale)
    model = MoEClassifier(
        scale.input_dim, scale.model_dim, scale.hidden_dim,
        scale.num_classes, scale.num_blocks, num_experts,
        np.random.default_rng(scale.seed), top_k=top_k,
        capacity_factor=capacity_factor, router=router,
        batch_prioritized=batch_prioritized)
    result = train_model(model, train, test, steps=scale.steps,
                         batch_size=scale.batch_size, lr=scale.lr,
                         seed=scale.seed)
    out = AccuracyResult(
        name=f"moe-E{num_experts}-k{top_k}",
        eval_accuracy=result.eval_accuracy,
        final_train_loss=result.final_train_loss,
        probe_accuracy=_probe(model, test, scale),
        params=model.num_parameters(), history=result)
    return (out, model, task, test) if return_model else out


def dense_vs_sparse(scale: ExperimentScale
                    ) -> tuple[AccuracyResult, AccuracyResult]:
    """Table 9's core comparison on one shared task."""
    task = make_task(scale)
    return train_dense(scale, task), train_moe(scale, task=task)


def expert_count_sweep(scale: ExperimentScale,
                       expert_counts: tuple[int, ...] = (8, 16, 32, 64,
                                                         128)
                       ) -> list[AccuracyResult]:
    """Table 11's expert-count ablation on one shared task."""
    task = make_task(scale)
    return [train_moe(scale, num_experts=e, task=task)
            for e in expert_counts]


def bpr_sweep(scale: ExperimentScale,
              infer_factors: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75,
                                                  1.0, 1.25)
              ) -> dict[str, list[tuple[float, float]]]:
    """Figure 25: accuracy vs inference capacity, with/without BPR.

    Both models are trained at f = 1.25 (the paper's protocol); only
    evaluation capacity varies.
    """
    task = make_task(scale)
    curves: dict[str, list[tuple[float, float]]] = {}
    for bpr in (False, True):
        _, model, _, test = train_moe(
            scale, capacity_factor=1.25, batch_prioritized=bpr,
            task=task, return_model=True)
        points = []
        for f in infer_factors:
            model.set_inference_capacity(f)
            for layer in model.moe_layers():
                layer.batch_prioritized = bpr
            points.append((f, evaluate(model, test)))
        curves["w/ BPR" if bpr else "w/o BPR"] = points
    return curves


def router_comparison(scale: ExperimentScale
                      ) -> dict[str, AccuracyResult]:
    """Table 13: linear vs cosine router (E = 32, k = 1, f = 1.25)."""
    task = make_task(scale)
    return {
        "linear": train_moe(scale, router="linear", task=task),
        "cosine": train_moe(scale, router="cosine", task=task),
    }


#: Table 10's downstream task: 64 samples at drift 0.1, fine-tuned for
#: 200 steps at learning rate 2e-3.
FINETUNE_SAMPLES = 64
FINETUNE_STEPS = 200
FINETUNE_LR = 2e-3
DRIFT = 0.1


def finetune_frozen_vs_tuned(scale: ExperimentScale) -> dict[str, float]:
    """Table 10: downstream fine-tuning, tuned vs frozen MoE layers.

    Pre-trains on the main task, then fine-tunes on a *small* drifted
    downstream task (most structure transfers, as with COCO after
    ImageNet) twice: once updating everything, once with the MoE
    layers frozen.  The paper's mechanism reproduces: with scarce
    fine-tuning data each expert receives only a handful of samples,
    so updating the MoE layers degrades what pre-training learned,
    while freezing them preserves it (-1.7 AP tuned vs +0.4 AP fixed
    in the paper).
    """
    task = make_task(scale)
    down = task.downstream(seed=scale.seed + 5, drift=DRIFT)
    down_train = down.sample(FINETUNE_SAMPLES,
                             np.random.default_rng(scale.seed + 6))
    down_test = down.sample(scale.test_samples,
                            np.random.default_rng(scale.seed + 7))
    batch = min(64, FINETUNE_SAMPLES)

    results: dict[str, float] = {}
    for freeze in (False, True):
        _, model, _, _ = train_moe(scale, task=task, return_model=True)
        if freeze:
            model.freeze_moe()
        result = train_model(model, down_train, down_test,
                             steps=FINETUNE_STEPS, batch_size=batch,
                             lr=FINETUNE_LR, seed=scale.seed)
        results["fixed" if freeze else "tuned"] = result.eval_accuracy

    dense = DenseClassifier(scale.input_dim, scale.model_dim,
                            scale.hidden_dim, scale.num_classes,
                            scale.num_blocks,
                            np.random.default_rng(scale.seed))
    pre_train, pre_test = _data(task, scale)
    train_model(dense, pre_train, pre_test, steps=scale.steps,
                batch_size=scale.batch_size, lr=scale.lr,
                seed=scale.seed)
    result = train_model(dense, down_train, down_test,
                         steps=FINETUNE_STEPS, batch_size=batch,
                         lr=FINETUNE_LR, seed=scale.seed)
    results["dense"] = result.eval_accuracy
    return results


def topk_capacity_ablation(scale: ExperimentScale
                           ) -> list[dict[str, float]]:
    """Table 12: (k, train-f, infer-f) grid with accuracies."""
    task = make_task(scale)
    grid = [
        (1, 1.0, 1.25), (1, 1.0, 1.0), (1, 1.0, 0.625), (1, 1.0, 0.5),
        (2, 1.0, 1.25), (2, 1.0, 1.0), (2, 1.0, 0.625),
        (2, 0.625, 0.625),
    ]
    rows = []
    trained: dict[tuple[int, float], tuple] = {}
    for k, train_f, infer_f in grid:
        key = (k, train_f)
        if key not in trained:
            trained[key] = train_moe(scale, top_k=k,
                                     capacity_factor=train_f,
                                     task=task, return_model=True)
        _, model, _, test = trained[key]
        model.set_inference_capacity(infer_f)
        rows.append({
            "k": k, "train_f": train_f, "infer_f": infer_f,
            "accuracy": evaluate(model, test),
        })
    return rows
