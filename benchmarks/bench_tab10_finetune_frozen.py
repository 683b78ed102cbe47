"""Table 10 — downstream fine-tuning: tuned vs frozen MoE layers.

The paper's COCO finding: directly fine-tuning all layers degrades the
sparse model below its dense counterpart (-1.7 box AP), while *fixing*
the MoE layers during fine-tuning recovers and surpasses it (+0.4).
Our downstream protocol relabels the same latent clusters with few
samples; updating the MoE layers on scarce data corrupts the routing
the pre-training learned.
"""

from conftest import accuracy_scale
from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.train.experiments import finetune_frozen_vs_tuned


def run(verbose: bool = True):
    scale = accuracy_scale()
    results = finetune_frozen_vs_tuned(scale)
    table = Table("Table 10: downstream fine-tuning accuracy",
                  ["model", "MoE layers", "downstream acc"])
    table.add_row("dense", "-", f"{results['dense']:.3f}")
    table.add_row("moe", "tuned", f"{results['tuned']:.3f}")
    table.add_row("moe", "fixed", f"{results['fixed']:.3f}")
    if verbose:
        table.show()
        print("Paper: tuned MoE underperforms the dense baseline; "
              "fixing the MoE layers in fine-tuning recovers the "
              "advantage.")
    # Each tolerance is the row's largest deviation over seeds 0-5.
    emit("tab10", "Table 10: fine-tuning with frozen MoE layers", [
        Metric("fixed_accuracy", results["fixed"], "fraction",
               higher_is_better=True, tolerance=0.09),
        Metric("tuned_accuracy", results["tuned"], "fraction",
               higher_is_better=True, tolerance=0.09),
        Metric("freeze_advantage", results["fixed"] - results["tuned"],
               "fraction", tolerance=0.73),
    ], config={"steps": scale.steps, "seed": scale.seed})
    return results


def test_bench_tab10(once):
    results = once(run, verbose=False)
    # The paper's qualitative finding: freezing helps fine-tuning.
    assert results["fixed"] >= results["tuned"] - 0.02
    # All runs beat chance (1/8 classes).
    assert min(results.values()) > 0.15


if __name__ == "__main__":
    run()
