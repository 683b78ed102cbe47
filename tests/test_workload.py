"""Tests for dynamic workload traces and the Table 6 settings grid."""

import numpy as np
import pytest

from repro.models.workload import (
    TYPICAL_SETTINGS_AXES,
    dynamic_capacity_trace,
    sample_capacity_factors,
    typical_settings,
)


class TestDynamicTrace:
    def test_never_below_one(self):
        trace = dynamic_capacity_trace(1000, layer_index=3)
        assert (trace >= 1.0).all()

    def test_warmup_peak_early(self):
        trace = dynamic_capacity_trace(1000, layer_index=0)
        early = trace[:50].mean()
        late = trace[-200:].mean()
        assert early > 1.5 * late

    def test_figure1_dynamic_range(self):
        # "the workload changes up to 4.38x in a single training".
        trace = dynamic_capacity_trace(2000, layer_index=9)
        assert trace.max() / trace.min() > 2.0

    def test_layers_differ(self):
        t0 = dynamic_capacity_trace(500, layer_index=0)
        t9 = dynamic_capacity_trace(500, layer_index=9)
        assert not np.allclose(t0, t9)
        assert t9[-100:].mean() > t0[-100:].mean()

    def test_deterministic_per_seed(self):
        a = dynamic_capacity_trace(100, 2, seed=5)
        b = dynamic_capacity_trace(100, 2, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            dynamic_capacity_trace(0)
        with pytest.raises(ValueError):
            dynamic_capacity_trace(10, layer_index=10)


class TestTypicalSettings:
    def test_table6_grid_is_243(self):
        # 3^5 combinations at an even world size.
        assert len(typical_settings(16)) == 243

    def test_axes_match_table6(self):
        assert TYPICAL_SETTINGS_AXES["samples_per_step"] == (8, 16, 32)
        assert TYPICAL_SETTINGS_AXES["tokens_per_sample"] == \
            (512, 1024, 2048)
        assert TYPICAL_SETTINGS_AXES["experts_per_gpu"] == (0.5, 1, 2)

    def test_tokens_multiply(self):
        cfgs = typical_settings(16)
        tokens = {c.tokens_per_gpu for c in cfgs}
        assert 8 * 512 in tokens
        assert 32 * 2048 in tokens

    def test_all_configs_valid(self):
        for cfg in typical_settings(64):
            assert cfg.world_size == 64
            assert cfg.capacity_per_gpu >= 1

    def test_rejects_bad_world(self):
        with pytest.raises(ValueError):
            typical_settings(0)


class TestSampledFactors:
    def test_range(self):
        fs = sample_capacity_factors(100, 1.0, 16.0)
        assert (fs >= 1.0).all() and (fs <= 16.0).all()

    def test_log_uniform_spread(self):
        fs = sample_capacity_factors(4000, 1.0, 16.0, seed=1)
        # Roughly half the mass below the geometric midpoint (4.0).
        frac_below = (fs < 4.0).mean()
        assert 0.4 < frac_below < 0.6

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_capacity_factors(0)
        with pytest.raises(ValueError):
            sample_capacity_factors(10, 2.0, 1.0)
