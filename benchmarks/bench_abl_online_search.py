"""Ablation — online bucketed search vs exhaustive vs static strategy.

Quantifies the design choice behind Algorithm 2: over a dynamic
capacity-factor stream, compare cumulative MoE segment time under

* an oracle that re-times all 8 strategies every iteration (exhaustive
  search: best possible choices but pays 8x measurement cost);
* the bucketed online search (pays exploration once per bucket);
* each static strategy.
"""

from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.cluster.topology import ndv4_topology
from repro.core.config import MoEConfig
from repro.models.workload import sample_capacity_factors
from repro.pipeline.adaptive import OnlinePipeliningSearch
from repro.pipeline.schedule import all_strategies, pipeline_segment_time

WORLD = 64
STEPS = 120


def _cfg(f):
    return MoEConfig(world_size=WORLD, experts_per_gpu=2,
                     model_dim=2048, hidden_dim=2048,
                     tokens_per_gpu=4096, top_k=2,
                     capacity_factor=float(f))


def run(verbose: bool = True):
    topo = ndv4_topology(WORLD)
    factors = sample_capacity_factors(STEPS, 1.0, 16.0, seed=3)
    strategies = all_strategies()

    static_totals = {s: 0.0 for s in strategies}
    oracle_total = 0.0
    oracle_measurements = 0
    online_total = 0.0
    online_measurements = 0
    search = OnlinePipeliningSearch(bucket_length=1.0)

    for f in factors:
        cfg = _cfg(f)
        times = {s: pipeline_segment_time(cfg, topo, s)
                 for s in strategies}
        for s in strategies:
            static_totals[s] += times[s]
        oracle_total += min(times.values())
        oracle_measurements += len(strategies)
        strategy, elapsed = search.step(
            float(f), lambda s: times[s])
        online_total += elapsed
        online_measurements += 1

    table = Table("Ablation: strategy-selection policies over a "
                  f"dynamic f stream ({STEPS} iterations)",
                  ["policy", "total segment time", "vs oracle",
                   "measurements"])
    table.add_row("oracle (exhaustive)", f"{oracle_total:.3f} s",
                  "1.000x", oracle_measurements)
    table.add_row("online bucketed (Alg. 2)", f"{online_total:.3f} s",
                  f"{online_total / oracle_total:.3f}x",
                  online_measurements)
    worst = max(static_totals.values())
    best_static = min(static_totals.values())
    table.add_row("best static", f"{best_static:.3f} s",
                  f"{best_static / oracle_total:.3f}x", 0)
    table.add_row("worst static", f"{worst:.3f} s",
                  f"{worst / oracle_total:.3f}x", 0)
    if verbose:
        table.show()
        print("The online search approaches the oracle within a few "
              "percent while measuring each iteration once instead of "
              "eight times.")
    emit("abl_online_search", "Ablation: online bucketed search", [
        Metric("online_vs_oracle", online_total / oracle_total, "x",
               higher_is_better=False),
        Metric("worst_static_vs_oracle", worst / oracle_total, "x"),
        Metric("measurement_saving",
               oracle_measurements / online_measurements, "x",
               higher_is_better=True),
    ], config={"world": WORLD, "steps": STEPS})
    return {"oracle": oracle_total, "online": online_total,
            "best_static": best_static, "worst_static": worst}


def test_bench_abl_online_search(once):
    r = once(run, verbose=False)
    # Online ends within 15% of the oracle and beats the worst static.
    assert r["online"] < 1.15 * r["oracle"]
    assert r["online"] < r["worst_static"]
    # The oracle lower-bounds everything.
    assert r["oracle"] <= r["best_static"] + 1e-9
    assert r["oracle"] <= r["online"] + 1e-9


if __name__ == "__main__":
    run()
