"""Figure 24 — encode/decode kernel time, Tutel sparse vs Fairseq dense.

This is a *real measurement*, not a model: the dense GShard einsum path
(Figure 18a) and the sparse Tutel path (Figure 18b) both run in NumPy
on actual data, and the sparse path's O(T*k*M) work beats the dense
O(T*E*dC*M) by a growing factor as tokens scale — the same shape as the
paper's CUDA measurement.
"""

import time

import numpy as np

from repro.bench.harness import Table
from repro.bench.report import Metric, emit
from repro.core.units import fmt_time
from repro.moe.encode import (
    dense_decode,
    dense_encode,
    fast_decode,
    fast_encode,
)
from repro.moe.gating import softmax
from repro.nn.moe import route

TOKEN_COUNTS = (512, 1024, 2048, 4096)
MODEL_DIM = 256
EXPERTS = 8
TOP_K = 2


def _case(tokens, seed=0):
    rng = np.random.default_rng(seed)
    probs = softmax(rng.normal(size=(tokens, EXPERTS)))
    capacity = max(1, TOP_K * tokens // EXPERTS)
    routing = route(probs, TOP_K, capacity)
    crit = routing.crit.with_gates(routing.gates)
    x = rng.normal(size=(tokens, MODEL_DIM))
    z = rng.normal(size=(EXPERTS, capacity, MODEL_DIM))
    return x, z, crit


def _time(fn, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(verbose: bool = True):
    table = Table("Figure 24: encode+decode kernel time (measured)",
                  ["tokens/step", "fairseq dense", "tutel sparse",
                   "speedup"])
    results = {}
    for tokens in TOKEN_COUNTS:
        x, z, crit = _case(tokens)
        dense_t = (_time(lambda: dense_encode(x, crit))
                   + _time(lambda: dense_decode(z, crit)))
        sparse_t = (_time(lambda: fast_encode(x, crit))
                    + _time(lambda: fast_decode(z, crit)))
        results[tokens] = (dense_t, sparse_t)
        table.add_row(tokens, fmt_time(dense_t), fmt_time(sparse_t),
                      f"{dense_t / sparse_t:.1f}x")
    if verbose:
        table.show()
        print("Real NumPy timing; the dense cost grows ~quadratically "
              "in tokens (dC tracks T), the sparse cost linearly — the "
              "paper's Figure 24 gap.")
    # Wall-clock numbers: recorded for the report but excluded from the
    # regression gate by default (kind="measured").
    top = max(TOKEN_COUNTS)
    emit("fig24", "Figure 24: encode/decode kernel time (measured)", [
        Metric("sparse_speedup_4096tok", results[top][0] / results[top][1],
               "x", kind="measured", higher_is_better=True),
        Metric("dense_ms_4096tok", results[top][0] * 1e3, "ms",
               kind="measured"),
        Metric("sparse_ms_4096tok", results[top][1] * 1e3, "ms",
               kind="measured"),
    ], config={"token_counts": list(TOKEN_COUNTS),
               "model_dim": MODEL_DIM, "experts": EXPERTS})
    return results


def test_bench_fig24(benchmark):
    x, z, crit = _case(4096)

    def both():
        fast_decode(fast_encode(x, crit), crit)
    benchmark(both)
    # Correctness + the headline claim: sparse is much faster.
    np.testing.assert_allclose(fast_encode(x, crit),
                               dense_encode(x, crit))
    results = run(verbose=False)
    dense_t, sparse_t = results[max(TOKEN_COUNTS)]
    assert dense_t > 3 * sparse_t


if __name__ == "__main__":
    run()
