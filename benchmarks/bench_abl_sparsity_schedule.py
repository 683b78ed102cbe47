"""Ablation — dynamic sparsity schedules (the Section 4.1 knobs).

Tutel supports changing ``k`` and ``f`` at every iteration; the paper
suggests users "dynamically fine-tune sparsity".  This ablation trains
the toy MoE classifier under three regimes:

* static top-1 (cheapest),
* static top-2 (most accurate, most compute),
* top-2 annealed to top-1 halfway through training,

and reports accuracy next to the average routed compute (mean k * f —
proportional to MoE fflayer FLOPs).
"""

from conftest import accuracy_scale
from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.nn.models import MoEClassifier
from repro.train.experiments import make_task
from repro.train.schedules import ConstantSchedule, StepSchedule
from repro.train.trainer import train_model

import numpy as np


def _train(scale, task, schedule, name):
    train = task.sample(scale.train_samples,
                        np.random.default_rng(scale.seed + 1))
    test = task.sample(scale.test_samples,
                       np.random.default_rng(scale.seed + 2))
    model = MoEClassifier(scale.input_dim, scale.model_dim,
                          scale.hidden_dim, scale.num_classes,
                          scale.num_blocks, scale.num_clusters,
                          np.random.default_rng(scale.seed), top_k=2,
                          capacity_factor=1.25)
    result = train_model(model, train, test, steps=scale.steps,
                         batch_size=scale.batch_size, lr=scale.lr,
                         seed=scale.seed, top_k_schedule=schedule)
    mean_k = np.mean([schedule(s) for s in range(scale.steps)])
    return {"name": name, "accuracy": result.eval_accuracy,
            "mean_k": float(mean_k),
            "final_k": model.moe_layers()[0].top_k}


def run(verbose: bool = True):
    scale = accuracy_scale()
    task = make_task(scale)
    half = scale.steps // 2
    regimes = [
        (ConstantSchedule(1), "static top-1"),
        (ConstantSchedule(2), "static top-2"),
        (StepSchedule(values=(2, 1), milestones=(half,)),
         "top-2 -> top-1 anneal"),
    ]
    rows = [_train(scale, task, sched, name) for sched, name in regimes]

    table = Table("Ablation: dynamic top-k schedules",
                  ["regime", "eval acc", "mean routed k",
                   "relative MoE compute"])
    base = rows[0]["mean_k"]
    for row in rows:
        table.add_row(row["name"], f"{row['accuracy']:.3f}",
                      f"{row['mean_k']:.2f}",
                      f"{row['mean_k'] / base:.2f}x")
    if verbose:
        table.show()
        print("The anneal recovers most of top-2's accuracy at a "
              "fraction of its routed compute — the dynamic-sparsity "
              "use case of Section 4.1.")
    by_name = {row["name"]: row for row in rows}
    # Each tolerance is the row's largest deviation over seeds 0-5.
    emit("abl_sparsity_schedule", "Ablation: dynamic top-k schedules", [
        Metric("anneal_accuracy",
               by_name["top-2 -> top-1 anneal"]["accuracy"], "fraction",
               higher_is_better=True, tolerance=0.06),
        Metric("anneal_mean_k",
               by_name["top-2 -> top-1 anneal"]["mean_k"], "k",
               tolerance=0.0),
        Metric("top2_accuracy", by_name["static top-2"]["accuracy"],
               "fraction", higher_is_better=True, tolerance=0.08),
    ], config={"steps": scale.steps, "seed": scale.seed})
    return by_name


def test_bench_abl_sparsity(once):
    rows = once(run, verbose=False)
    anneal = rows["top-2 -> top-1 anneal"]
    k1 = rows["static top-1"]
    k2 = rows["static top-2"]
    # The anneal's routed compute sits strictly between the statics.
    assert k1["mean_k"] < anneal["mean_k"] < k2["mean_k"]
    # It ends in the cheap top-1 configuration.
    assert anneal["final_k"] == 1
    # And its accuracy at least matches static top-1 (within noise).
    assert anneal["accuracy"] > k1["accuracy"] - 0.05


if __name__ == "__main__":
    run()
