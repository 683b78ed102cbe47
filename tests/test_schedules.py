"""Tests for dynamic sparsity schedules (Section 4.1 feature)."""

import numpy as np
import pytest

from repro.nn.models import MoEClassifier
from repro.train.data import ClusteredTokenTask
from repro.train.schedules import (
    ConstantSchedule,
    StepSchedule,
    apply_sparsity_schedules,
)
from repro.train.trainer import train_model


class TestScheduleShapes:
    def test_constant(self):
        s = ConstantSchedule(2.0)
        assert s(0) == s(1000) == 2.0

    def test_step(self):
        s = StepSchedule(values=(2, 1), milestones=(100,))
        assert s(0) == 2
        assert s(99) == 2
        assert s(100) == 1

    def test_step_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(values=(2,), milestones=(10,))
        with pytest.raises(ValueError):
            StepSchedule(values=(3, 2, 1), milestones=(20, 10))


class TestApplyToModel:
    @pytest.fixture
    def model(self):
        return MoEClassifier(8, 16, 32, 4, num_blocks=2, num_experts=4,
                             rng=np.random.default_rng(0), top_k=2)

    def test_top_k_applied_and_clamped(self, model):
        apply_sparsity_schedules(model, 0,
                                 top_k=ConstantSchedule(9))
        assert all(layer.top_k == 4 for layer in model.moe_layers())
        apply_sparsity_schedules(model, 0,
                                 top_k=ConstantSchedule(0.2))
        assert all(layer.top_k == 1 for layer in model.moe_layers())

    def test_capacity_applied(self, model):
        apply_sparsity_schedules(model, 0,
                                 capacity_factor=ConstantSchedule(-2.0))
        for layer in model.moe_layers():
            assert layer.capacity_policy.upper_bound == 2.0

    def test_noop_on_dense_model(self):
        from repro.nn.models import DenseClassifier
        dense = DenseClassifier(8, 16, 32, 4, num_blocks=1,
                                rng=np.random.default_rng(0))
        apply_sparsity_schedules(dense, 0, top_k=ConstantSchedule(1))


class TestTrainingWithSchedules:
    def test_annealed_k_trains(self):
        task = ClusteredTokenTask(num_clusters=8, input_dim=8,
                                  num_classes=4, seed=0)
        train = task.sample(1024)
        test = task.sample(512)
        model = MoEClassifier(8, 16, 32, 4, num_blocks=2,
                              num_experts=8,
                              rng=np.random.default_rng(0), top_k=2)
        result = train_model(
            model, train, test, steps=40, seed=0,
            top_k_schedule=StepSchedule(values=(2, 1),
                                        milestones=(20,)),
            capacity_schedule=StepSchedule(values=(2.0, 1.25),
                                           milestones=(30,)))
        # After the milestone every layer routes top-1.
        assert all(layer.top_k == 1 for layer in model.moe_layers())
        assert result.eval_accuracy > 0.2
        # Capacity stepped down at step 30 (last applied step is 39).
        for layer in model.moe_layers():
            assert layer.capacity_policy.capacity_factor == 1.25
