"""Tests for the SwinV2-MoE workload model against the paper's tables."""

import pytest

from repro.models.swin import (
    SWINV2_B,
    SWINV2_S,
    SWINV2_THIN_TINY,
    inference_gflops,
    moe_parameter_count,
    swinv2_moe_speed,
)
from repro.runtime.plan import FAIRSEQ_FEATURES, TUTEL_FEATURES


class TestGeometry:
    def test_ten_moe_layers(self):
        # "10 total MoE layers in the model" (Figure 1 caption).
        assert len(SWINV2_B.moe_layer_plan()) == 10
        assert len(SWINV2_S.moe_layer_plan()) == 10

    def test_stage_dims_double(self):
        assert SWINV2_B.stage_dims == (128, 256, 512, 1024)

    def test_stage_tokens_at_192(self):
        assert SWINV2_B.stage_tokens == (48 ** 2, 24 ** 2, 12 ** 2, 6 ** 2)

    def test_moe_layers_in_late_stages_only(self):
        stages = {stage for stage, _, _ in SWINV2_B.moe_layer_plan()}
        assert stages == {2, 3}

    def test_thin_tiny_smaller(self):
        assert SWINV2_THIN_TINY.embed_dim < SWINV2_S.embed_dim


class TestParameterCounts:
    @pytest.mark.parametrize("variant,e,paper_m", [
        (SWINV2_S, 8, 173.3), (SWINV2_S, 16, 296.1),
        (SWINV2_S, 32, 541.8), (SWINV2_S, 64, 1033.0),
        (SWINV2_S, 128, 2016.0),
        (SWINV2_B, 8, 300.3), (SWINV2_B, 16, 518.7),
        (SWINV2_B, 32, 955.3),
    ])
    def test_table11_param_column(self, variant, e, paper_m):
        measured = moe_parameter_count(variant, e) / 1e6
        assert measured == pytest.approx(paper_m, rel=0.02)

    def test_one_expert_equals_dense(self):
        assert moe_parameter_count(SWINV2_B, 1) == SWINV2_B.dense_params

    def test_rejects_zero_experts(self):
        with pytest.raises(ValueError):
            moe_parameter_count(SWINV2_B, 0)


class TestGflops:
    @pytest.mark.parametrize("k,f,paper", [
        (1, 1.25, 12.54), (1, 1.0, 11.78), (1, 0.625, 10.65),
        (1, 0.5, 10.27), (2, 1.25, 16.31), (2, 1.0, 14.80),
        (2, 0.625, 12.54), (2, 0.5, 11.78),
    ])
    def test_table12_gflops_column(self, k, f, paper):
        assert inference_gflops(SWINV2_B, k, f) == pytest.approx(
            paper, rel=0.02)

    def test_k1_f1_equals_dense(self):
        assert inference_gflops(SWINV2_B, 1, 1.0) == pytest.approx(
            SWINV2_B.dense_gflops)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            inference_gflops(SWINV2_B, 0, 1.0)
        with pytest.raises(ValueError):
            inference_gflops(SWINV2_B, 1, 0.0)


class TestSpeedEstimates:
    def test_tutel_faster_than_fairseq(self):
        for world in (8, 32, 128):
            fair = swinv2_moe_speed(SWINV2_B, FAIRSEQ_FEATURES,
                                    world=world)
            tutel = swinv2_moe_speed(SWINV2_B, TUTEL_FEATURES,
                                     world=world)
            assert tutel.train_rate > fair.train_rate
            assert tutel.infer_rate > fair.infer_rate

    def test_table8_band(self):
        # Paper: train speedup 1.14-1.55x, inference 1.95-2.11x.
        fair = swinv2_moe_speed(SWINV2_B, FAIRSEQ_FEATURES, world=128)
        tutel = swinv2_moe_speed(SWINV2_B, TUTEL_FEATURES, world=128)
        assert 1.05 < tutel.train_rate / fair.train_rate < 2.2
        assert 1.2 < tutel.infer_rate / fair.infer_rate < 3.0

    def test_moe_slower_than_dense(self):
        tutel = swinv2_moe_speed(SWINV2_B, TUTEL_FEATURES, world=8)
        assert tutel.train_rate <= SWINV2_B.dense_train_rate
        assert tutel.infer_rate <= SWINV2_B.dense_infer_rate

    def test_breakdowns_per_layer(self):
        speed = swinv2_moe_speed(SWINV2_B, TUTEL_FEATURES, world=8)
        assert len(speed.breakdowns) == 10


class TestComputedGflops:
    def test_scales_with_resolution(self):
        import dataclasses
        big = dataclasses.replace(SWINV2_B, input_resolution=384)
        assert big.moe_ffn_gflops() > 3.5 * SWINV2_B.moe_ffn_gflops()

    def test_moe_ffn_is_fraction_of_dense(self):
        # Against the paper's Table 11 GFLOPs column.
        moe_part = SWINV2_B.moe_ffn_gflops()
        assert 0.1 < moe_part / SWINV2_B.dense_gflops < 0.5
