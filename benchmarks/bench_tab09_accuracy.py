"""Table 9 — sparse SwinV2-MoE vs its dense counterpart.

The paper: SwinV2-MoE-B beats SwinV2-B on pre-training accuracy
(+1.3), fine-tuning (+0.4) and 5-shot linear evaluation (+2.0).  Our
reproduction trains matched dense/MoE token classifiers on the
clustered synthetic task; the claim under test is the *ordering* and
the sign of every gap.
"""

from conftest import accuracy_scale
from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.train.experiments import dense_vs_sparse


def run(verbose: bool = True):
    scale = accuracy_scale()
    dense, moe = dense_vs_sparse(scale)
    table = Table("Table 9: dense vs sparse accuracy",
                  ["model", "eval acc", "5-shot probe acc",
                   "train loss", "params"])
    for r in (dense, moe):
        probe = "-" if r.probe_accuracy is None else \
            f"{r.probe_accuracy:.3f}"
        table.add_row(r.name, f"{r.eval_accuracy:.3f}", probe,
                      f"{r.final_train_loss:.3f}", r.params)
    if verbose:
        table.show()
        print(f"MoE gain: {moe.eval_accuracy - dense.eval_accuracy:+.3f}"
              " eval accuracy (paper: +1.3 top-1 on IN-22K); lower "
              "train loss mirrors Table 11's loss column.")
    # Each tolerance is the row's largest deviation over seeds 0-5.
    emit("tab09", "Table 9: sparse vs dense accuracy", [
        Metric("moe_eval_accuracy", moe.eval_accuracy, "fraction",
               higher_is_better=True, tolerance=0.10),
        Metric("dense_eval_accuracy", dense.eval_accuracy, "fraction",
               higher_is_better=True, tolerance=0.09),
        Metric("moe_accuracy_gain",
               moe.eval_accuracy - dense.eval_accuracy, "fraction",
               higher_is_better=True, tolerance=0.21),
    ], config={"steps": scale.steps, "seed": scale.seed})
    return dense, moe


def test_bench_tab09(once):
    dense, moe = once(run, verbose=False)
    # The headline: sparse beats dense at equal activated computation.
    assert moe.eval_accuracy > dense.eval_accuracy
    assert moe.final_train_loss < dense.final_train_loss
    assert moe.params > dense.params


if __name__ == "__main__":
    run()
