"""Table 5 — adaptive parallelism switching improvements.

(a) Improvement over each static strategy across capacity factors,
    E2/S2K/V8K at W = 8 (static M = 2K);
(b) improvement across model settings, including a hybrid f = 1~16
    stream where the adaptive router beats *both* static choices.
"""

from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.cluster.topology import ndv4_topology
from repro.core.config import MoEConfig
from repro.models.workload import sample_capacity_factors
from repro.parallel.strategy import Parallelism, best_strategy, strategy_cost

WORLD = 8


def _cfg(f=1.0, experts=2, tokens=2048, hidden=8192, k=2):
    return MoEConfig(world_size=WORLD, experts_per_gpu=experts / WORLD,
                     model_dim=2048, hidden_dim=hidden,
                     tokens_per_gpu=tokens, top_k=min(k, experts),
                     capacity_factor=f)


def _improvements(cfg, topo):
    """Adaptive improvement over each static strategy (fractions)."""
    costs = {s: strategy_cost(cfg, topo, s).total_time
             for s in (Parallelism.P1_EP_DP, Parallelism.P2_EP_MP)}
    best = min(costs.values())
    return {s: (t - best) / t for s, t in costs.items()}


def run(verbose: bool = True):
    topo = ndv4_topology(WORLD)

    factors = (1.0, 2.0, 4.0, 8.0, 16.0)
    table_a = Table("Table 5a: improvement vs static strategy "
                    "(E2, S2K, V8K)",
                    ["static", *[f"f{int(f)}" for f in factors]])
    a_rows = {}
    for static in (Parallelism.P1_EP_DP, Parallelism.P2_EP_MP):
        row = []
        for f in factors:
            imp = _improvements(_cfg(f=f), topo)[static]
            a_rows[(static, f)] = imp
            row.append(f"{imp:.1%}")
        table_a.add_row(static.value, *row)

    settings = {
        "f1,E4,S1K,V4K": _cfg(f=1, experts=4, tokens=1024, hidden=4096),
        "f1,E4,S1K,V8K": _cfg(f=1, experts=4, tokens=1024, hidden=8192),
        "f1,E2,S16K,V2K": _cfg(f=1, experts=2, tokens=16384,
                               hidden=2048),
        "f1,E2,S32K,V2K": _cfg(f=1, experts=2, tokens=32768,
                               hidden=2048),
        "f1,E4,S4K,V8K": _cfg(f=1, experts=4, tokens=4096, hidden=8192),
        "f1,E1,S4K,V8K": _cfg(f=1, experts=1, tokens=4096, hidden=8192,
                              k=1),
    }
    table_b = Table("Table 5b: improvement per setting",
                    ["setting", "vs static P1", "vs static P2",
                     "adaptive choice"])
    b_rows = {}
    for name, cfg in settings.items():
        imp = _improvements(cfg, topo)
        chosen = best_strategy(cfg, topo).strategy
        b_rows[name] = (imp[Parallelism.P1_EP_DP],
                        imp[Parallelism.P2_EP_MP], chosen)
        table_b.add_row(name, f"{imp[Parallelism.P1_EP_DP]:.1%}",
                        f"{imp[Parallelism.P2_EP_MP]:.1%}", chosen.value)

    # Hybrid dynamic stream f = 1 ~ 16: adaptive vs both statics.
    stream = sample_capacity_factors(64, 1.0, 16.0, seed=0)
    totals = {Parallelism.P1_EP_DP: 0.0, Parallelism.P2_EP_MP: 0.0}
    adaptive_total = 0.0
    for f in stream:
        cfg = _cfg(f=float(f), experts=4, tokens=2048, hidden=8192)
        costs = {s: strategy_cost(cfg, topo, s).total_time
                 for s in totals}
        for s in totals:
            totals[s] += costs[s]
        adaptive_total += min(costs.values())
    hybrid = {s: (t - adaptive_total) / t for s, t in totals.items()}
    table_b.add_row("f1~16,E4,S2K,V8K",
                    f"{hybrid[Parallelism.P1_EP_DP]:.1%}",
                    f"{hybrid[Parallelism.P2_EP_MP]:.1%}", "adaptive")

    if verbose:
        table_a.show()
        table_b.show()
        print("Paper shape: the adaptive router never loses, prefers P2 "
              "for parameter-heavy settings and P1 for token-heavy "
              "ones, and beats both statics simultaneously on the "
              "hybrid stream.")
    emit("tab05", "Table 5: adaptive parallelism switching", [
        Metric("improvement_vs_p1_f1",
               a_rows[(Parallelism.P1_EP_DP, 1.0)], "fraction",
               higher_is_better=True),
        Metric("improvement_vs_p2_f16",
               a_rows[(Parallelism.P2_EP_MP, 16.0)], "fraction",
               higher_is_better=True),
        Metric("hybrid_improvement_vs_p1",
               hybrid[Parallelism.P1_EP_DP], "fraction",
               higher_is_better=True),
        Metric("hybrid_improvement_vs_p2",
               hybrid[Parallelism.P2_EP_MP], "fraction",
               higher_is_better=True),
    ], config={"world": WORLD})
    return {"a": a_rows, "b": b_rows, "hybrid": hybrid}


def test_bench_tab05(once):
    results = once(run, verbose=False)
    # Improvements are never negative (the router never loses).
    assert all(v >= 0 for v in results["a"].values())
    # At f = 1 the adaptive choice beats static P1; at f = 16 it beats
    # static P2 (the paper's Table 5a diagonal).
    assert results["a"][(Parallelism.P1_EP_DP, 1.0)] > 0
    assert results["a"][(Parallelism.P2_EP_MP, 16.0)] > 0
    # Token-heavy settings choose P1, parameter-heavy choose P2.
    assert results["b"]["f1,E2,S32K,V2K"][2] is Parallelism.P1_EP_DP
    assert results["b"]["f1,E4,S1K,V8K"][2] is Parallelism.P2_EP_MP
    # Hybrid stream: positive improvement against both statics.
    assert all(v > 0 for v in results["hybrid"].values())


if __name__ == "__main__":
    run()
