"""Table 12 — ablation of top-k and train/inference capacity factors.

The paper's grid: k in {1, 2}, train-f in {1.0, 0.625}, infer-f in
{1.25, 1.0, 0.625, 0.5}.  Accuracy degrades gracefully as inference
capacity shrinks, k = 2 is slightly better but costlier, and the
inference GFLOPs/speed columns come from the SwinV2 cost model.
"""

from conftest import accuracy_scale
from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.models.swin import SWINV2_B, inference_gflops
from repro.train.experiments import topk_capacity_ablation


def run(verbose: bool = True):
    scale = accuracy_scale()
    rows = topk_capacity_ablation(scale)
    table = Table("Table 12: top-k / capacity-factor ablation",
                  ["k", "train-f", "infer-f", "infer GFLOPs (SwinV2-B)",
                   "eval acc"])
    for row in rows:
        gflops = inference_gflops(SWINV2_B, row["k"], row["infer_f"])
        table.add_row(row["k"], row["train_f"], row["infer_f"],
                      f"{gflops:.2f}", f"{row['accuracy']:.3f}")
    if verbose:
        table.show()
        print("Paper shape: accuracy falls slowly as infer-f shrinks "
              "(38.6 -> 38.0 for k=1), k=2 is at least as accurate.")
    by_key = {(r["k"], r["train_f"], r["infer_f"]): r["accuracy"]
              for r in rows}
    # Each tolerance is the row's largest deviation over seeds 0-5.
    emit("tab12", "Table 12: top-k / capacity ablation", [
        Metric("k1_full_capacity_accuracy", by_key[(1, 1.0, 1.0)],
               "fraction", higher_is_better=True, tolerance=0.06),
        Metric("k2_full_capacity_accuracy", by_key[(2, 1.0, 1.0)],
               "fraction", higher_is_better=True, tolerance=0.09),
        Metric("k1_low_capacity_drop",
               by_key[(1, 1.0, 1.0)] - by_key[(1, 1.0, 0.5)],
               "fraction", tolerance=0.31),
    ], config={"steps": scale.steps, "seed": scale.seed})
    return rows


def test_bench_tab12(once):
    rows = once(run, verbose=False)
    by_key = {(r["k"], r["train_f"], r["infer_f"]): r["accuracy"]
              for r in rows}
    # Shrinking inference capacity never helps much (monotone-ish).
    assert by_key[(1, 1.0, 1.0)] >= by_key[(1, 1.0, 0.5)] - 0.03
    assert by_key[(2, 1.0, 1.0)] >= by_key[(2, 1.0, 0.625)] - 0.03
    # All cells beat chance.
    assert min(by_key.values()) > 0.2


if __name__ == "__main__":
    run()
