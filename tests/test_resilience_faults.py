"""Tests for fault plans and fault-aware simulation."""

import numpy as np
import pytest

from repro import obs
from repro.cluster.simulator import Schedule, simulate
from repro.resilience.faults import (
    FaultPlan,
    LinkDegradation,
    OpFailure,
    StragglerWindow,
)


def single_op_schedule(work=1.0, kind="compute", stream="compute",
                       gpu=0):
    s = Schedule()
    s.new_op(work=work, gpu=gpu, stream=stream, kind=kind, label="op")
    return s


class TestFaultPlanModel:
    def test_empty_plan(self):
        assert FaultPlan().empty()
        assert not FaultPlan(stragglers=[
            StragglerWindow(gpu=0, start=0.0, end=1.0, factor=0.5)
        ]).empty()

    def test_rate_scale_composes(self):
        plan = FaultPlan(
            stragglers=[StragglerWindow(gpu=0, start=0.0, end=1.0,
                                        factor=0.5)],
            link_degradations=[LinkDegradation(start=0.0, end=1.0,
                                               factor=0.5)])
        # Compute ops only see the straggler; comm ops see both.
        assert plan.rate_scale(0, "compute", 0.5) == pytest.approx(0.5)
        assert plan.rate_scale(0, "comm", 0.5) == pytest.approx(0.25)
        assert plan.rate_scale(1, "compute", 0.5) == pytest.approx(1.0)
        assert plan.rate_scale(0, "compute", 2.0) == pytest.approx(1.0)

    def test_link_degradation_gpu_scoped(self):
        d = LinkDegradation(start=0.0, end=1.0, factor=0.5, gpu=2)
        assert d.applies(2, "comm", 0.5)
        assert not d.applies(1, "comm", 0.5)
        assert not d.applies(2, "compute", 0.5)

    def test_boundaries_sorted_unique(self):
        plan = FaultPlan(
            stragglers=[StragglerWindow(gpu=0, start=0.3, end=0.9,
                                        factor=0.5)],
            link_degradations=[LinkDegradation(start=0.3, end=0.6,
                                               factor=0.5)],
            op_failures=[OpFailure(time=0.1, gpu=0)])
        assert plan.boundaries() == [0.1, 0.3, 0.6, 0.9]

    def test_validation(self):
        with pytest.raises(ValueError):
            StragglerWindow(gpu=0, start=1.0, end=0.5, factor=0.5)
        with pytest.raises(ValueError):
            StragglerWindow(gpu=0, start=0.0, end=1.0, factor=0.0)
        with pytest.raises(ValueError):
            LinkDegradation(start=-1.0, end=1.0, factor=0.5)
        with pytest.raises(ValueError):
            OpFailure(time=-0.5, gpu=0)
        with pytest.raises(ValueError):
            OpFailure(time=0.5, gpu=0, timeout=-1.0)


class TestStragglerInjection:
    def test_full_window_scales_runtime(self):
        plan = FaultPlan(stragglers=[
            StragglerWindow(gpu=0, start=0.0, end=10.0, factor=0.5)])
        result = simulate(single_op_schedule(1.0), faults=plan)
        assert result.makespan == pytest.approx(2.0)

    def test_partial_window_piecewise(self):
        # Rate 0.5 over [0, 0.5): 0.25 work done; remaining 0.75 at
        # full rate -> finish at 1.25.
        plan = FaultPlan(stragglers=[
            StragglerWindow(gpu=0, start=0.0, end=0.5, factor=0.5)])
        result = simulate(single_op_schedule(1.0), faults=plan)
        assert result.makespan == pytest.approx(1.25)

    def test_other_gpu_unaffected(self):
        plan = FaultPlan(stragglers=[
            StragglerWindow(gpu=1, start=0.0, end=10.0, factor=0.25)])
        result = simulate(single_op_schedule(1.0, gpu=0), faults=plan)
        assert result.makespan == pytest.approx(1.0)

    def test_straggler_stretches_barrier(self):
        # Two-GPU schedule joined by a barrier: the straggler on one
        # GPU delays the whole iteration.
        plan = FaultPlan(stragglers=[
            StragglerWindow(gpu=1, start=0.0, end=10.0, factor=0.5)])
        s = Schedule()
        a = s.new_op(work=1.0, gpu=0, kind="compute", label="a")
        b = s.new_op(work=1.0, gpu=1, kind="compute", label="b")
        s.new_op(work=0.0, gpu=0, kind="host", deps=(a, b),
                 label="barrier")
        assert simulate(s, faults=plan).makespan == pytest.approx(2.0)


class TestLinkDegradation:
    def test_slows_comm_only(self):
        plan = FaultPlan(link_degradations=[
            LinkDegradation(start=0.0, end=10.0, factor=0.5)])
        comm = simulate(single_op_schedule(1.0, kind="comm",
                                           stream="comm"), faults=plan)
        compute = simulate(single_op_schedule(1.0), faults=plan)
        assert comm.makespan == pytest.approx(2.0)
        assert compute.makespan == pytest.approx(1.0)

    def test_applies_to_memcpy_comm(self):
        plan = FaultPlan(link_degradations=[
            LinkDegradation(start=0.0, end=10.0, factor=0.5)])
        result = simulate(single_op_schedule(1.0, kind="comm_memcpy",
                                             stream="comm"), faults=plan)
        assert result.makespan == pytest.approx(2.0)


class TestOpFailure:
    def test_retry_recharges_cost(self):
        # Fails at t=0.5 with 0.2 timeout: progress lost, full work
        # plus timeout re-charged -> finishes at 0.5 + 1.2.
        plan = FaultPlan(op_failures=[
            OpFailure(time=0.5, gpu=0, timeout=0.2)])
        result = simulate(single_op_schedule(1.0), faults=plan)
        assert result.makespan == pytest.approx(1.7)
        assert result.faults_injected == 1
        assert result.faults_recovered == 1
        op = next(iter(result.retries))
        assert result.retries[op] == 1
        # The span covers the whole attempt sequence.
        assert result.spans[op] == (pytest.approx(0.0),
                                   pytest.approx(1.7))

    def test_stream_scoped_failure(self):
        plan = FaultPlan(op_failures=[
            OpFailure(time=0.5, gpu=0, stream="comm", timeout=0.0)])
        s = Schedule()
        s.new_op(work=1.0, gpu=0, stream="compute", kind="compute",
                 label="comp")
        s.new_op(work=1.0, gpu=0, stream="comm", kind="host",
                 label="comm")
        result = simulate(s, faults=plan)
        comp = next(op for op in s.ops if op.label == "comp")
        comm = next(op for op in s.ops if op.label == "comm")
        assert result.spans[comp][1] == pytest.approx(1.0)
        assert result.spans[comm][1] == pytest.approx(1.5)

    def test_idle_failure_counted_not_recovered(self):
        plan = FaultPlan(op_failures=[
            OpFailure(time=0.5, gpu=3, timeout=0.2)])
        result = simulate(single_op_schedule(1.0, gpu=0), faults=plan)
        assert result.makespan == pytest.approx(1.0)
        assert result.faults_injected == 1
        assert result.faults_recovered == 0

    def test_double_failure_double_retry(self):
        plan = FaultPlan(op_failures=[
            OpFailure(time=0.5, gpu=0, timeout=0.0),
            OpFailure(time=1.0, gpu=0, timeout=0.0)])
        result = simulate(single_op_schedule(1.0), faults=plan)
        # Restarts at 0.5 and again at 1.0 -> finishes at 2.0.
        assert result.makespan == pytest.approx(2.0)
        op = next(iter(result.retries))
        assert result.retries[op] == 2
        assert result.faults_recovered == 1  # one op, recovered once


class TestFaultObservability:
    def test_events_and_counters_emitted(self):
        ob = obs.enable()
        try:
            plan = FaultPlan(op_failures=[
                OpFailure(time=0.5, gpu=0, timeout=0.2)])
            simulate(single_op_schedule(1.0), faults=plan)
            counters = ob.registry.snapshot()["counters"]
            assert counters["fault.injected"] == 1
            assert counters["fault.recovered"] == 1
            assert counters["sim.faults_injected"] == 1
            names = [e.name for e in ob.recorder.events
                     if e.cat == "fault"]
            assert names == ["injected", "recovered"]
            injected = next(e for e in ob.recorder.events
                            if e.name == "injected")
            assert injected.ts == pytest.approx(0.5)
            assert injected.args["victims"] == ["op"]
        finally:
            obs.disable()

    def test_empty_plan_equals_fault_free(self):
        s = Schedule()
        rng = np.random.default_rng(0)
        prev = None
        for i in range(10):
            prev = s.new_op(work=float(rng.uniform(0.1, 1.0)),
                            stream="compute", kind="compute",
                            deps=(prev,) if prev else (),
                            label=f"op{i}")
        base = simulate(s)
        with_empty = simulate(s, faults=FaultPlan())
        assert with_empty.makespan == pytest.approx(base.makespan)
        assert with_empty.faults_injected == 0
