"""Table 13 — the cosine router vs the linear router.

E = 32, k = 1, f = 1.25.  The paper finds the cosine router (Eq. 2)
matches the linear router's accuracy on image classification (within
a few tenths); the claim under test is parity, not superiority.
"""

from conftest import accuracy_scale
from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.train.experiments import router_comparison


def run(verbose: bool = True):
    scale = accuracy_scale()
    results = router_comparison(scale)
    table = Table("Table 13: linear vs cosine router",
                  ["router", "eval acc", "5-shot probe acc",
                   "train loss"])
    for name, r in results.items():
        probe = "-" if r.probe_accuracy is None else \
            f"{r.probe_accuracy:.3f}"
        table.add_row(name, f"{r.eval_accuracy:.3f}", probe,
                      f"{r.final_train_loss:.3f}")
    if verbose:
        table.show()
        print("Paper: the cosine router is as accurate as the linear "
              "router (38.5 vs 38.5 on IN-22K for SwinV2-MoE-B).")
    # Each tolerance is the row's largest deviation over seeds 0-5.
    emit("tab13", "Table 13: cosine vs linear router", [
        Metric("linear_accuracy", results["linear"].eval_accuracy,
               "fraction", higher_is_better=True, tolerance=0.10),
        Metric("cosine_accuracy", results["cosine"].eval_accuracy,
               "fraction", higher_is_better=True, tolerance=0.09),
        Metric("router_gap",
               abs(results["linear"].eval_accuracy
                   - results["cosine"].eval_accuracy),
               "fraction", higher_is_better=False, tolerance=1.45),
    ], config={"steps": scale.steps, "seed": scale.seed})
    return results


def test_bench_tab13(once):
    results = once(run, verbose=False)
    linear = results["linear"].eval_accuracy
    cosine = results["cosine"].eval_accuracy
    # Parity within a modest band.
    assert abs(linear - cosine) < 0.12
    assert min(linear, cosine) > 0.2


if __name__ == "__main__":
    run()
