"""Smoke tests for the accuracy-experiment protocols (SMOKE scale)."""

import pytest

from repro.train.experiments import (
    SMOKE,
    ExperimentScale,
    bpr_sweep,
    dense_vs_sparse,
    expert_count_sweep,
    finetune_frozen_vs_tuned,
    router_comparison,
    topk_capacity_ablation,
    train_dense,
    train_moe,
)
from repro.train.trainer import evaluate


class TestProtocols:
    def test_dense_vs_sparse_runs(self):
        dense, moe = dense_vs_sparse(SMOKE)
        assert 0 <= dense.eval_accuracy <= 1
        assert 0 <= moe.eval_accuracy <= 1
        assert moe.params > dense.params  # extra experts

    def test_train_moe_infer_capacity_override(self):
        # Table 12's protocol: train at one f, re-evaluate at another.
        full, model, _, test = train_moe(SMOKE, capacity_factor=1.25,
                                         return_model=True)
        model.set_inference_capacity(0.1)
        assert evaluate(model, test) <= full.eval_accuracy + 0.1

    def test_expert_sweep_shapes(self):
        results = expert_count_sweep(SMOKE, expert_counts=(4, 8))
        assert [r.name for r in results] == ["moe-E4-k1", "moe-E8-k1"]
        assert results[1].params > results[0].params

    def test_bpr_sweep_structure(self):
        curves = bpr_sweep(SMOKE, infer_factors=(0.25, 1.0))
        assert set(curves) == {"w/ BPR", "w/o BPR"}
        for points in curves.values():
            assert [f for f, _ in points] == [0.25, 1.0]

    def test_router_comparison(self):
        results = router_comparison(SMOKE)
        assert set(results) == {"linear", "cosine"}

    def test_finetune_protocol(self):
        results = finetune_frozen_vs_tuned(SMOKE)
        assert set(results) == {"tuned", "fixed", "dense"}

    def test_topk_ablation_grid(self):
        rows = topk_capacity_ablation(SMOKE)
        assert len(rows) == 8
        assert {(r["k"], r["train_f"], r["infer_f"]) for r in rows} == {
            (1, 1.0, 1.25), (1, 1.0, 1.0), (1, 1.0, 0.625),
            (1, 1.0, 0.5), (2, 1.0, 1.25), (2, 1.0, 1.0),
            (2, 1.0, 0.625), (2, 0.625, 0.625)}

    def test_capacity_trace_recorded(self):
        result = train_dense(SMOKE)
        assert result.history is not None
        moe = train_moe(SMOKE)
        assert len(moe.history.capacity_traces[0]) == SMOKE.steps

    def test_scale_is_frozen_dataclass(self):
        with pytest.raises(Exception):
            SMOKE.steps = 3

    def test_custom_scale(self):
        tiny = ExperimentScale(train_samples=256, test_samples=128,
                               steps=5, batch_size=64, num_clusters=4)
        result = train_moe(tiny, num_experts=4)
        assert result.history is not None
