"""Tests for strategy re-selection after rank failures and the
end-to-end ``compound_faults`` chaos scenario."""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.cluster.topology import ndv4_topology
from repro.collectives.schedule import (
    A2AAlgorithm,
    feasible_a2a_algorithms,
)
from repro.core.config import MoEConfig
from repro.obs.runs import RunStore
from repro.resilience.recovery import reselect_strategy
from repro.scenarios.engine import run_scenario
from repro.scenarios.library import get_scenario
from repro.scenarios.spec import ExpertDeath, NonFiniteStep


def make_cfg(world=16, experts=8):
    return MoEConfig(model_dim=1024, hidden_dim=4096,
                     tokens_per_gpu=4096,
                     experts_per_gpu=experts / world,
                     world_size=world, top_k=2)


class TestFeasibleAlgorithms:
    def test_symmetric_allows_2dh(self):
        topo = ndv4_topology(16)
        assert feasible_a2a_algorithms(topo) == (
            A2AAlgorithm.LINEAR, A2AAlgorithm.TWO_DH)

    def test_asymmetric_linear_only(self):
        topo = ndv4_topology(16)
        assert feasible_a2a_algorithms(topo, symmetric_nodes=False) == (
            A2AAlgorithm.LINEAR,)


class TestDegradedLink:
    def test_bandwidth_scaled(self):
        topo = ndv4_topology(16)
        degraded = topo.with_degraded_inter_link(0.5)
        assert degraded.inter_link.bandwidth == pytest.approx(
            topo.inter_link.bandwidth * 0.5)
        assert degraded.inter_link.latency == topo.inter_link.latency
        assert degraded.intra_link == topo.intra_link

    def test_factor_validation(self):
        topo = ndv4_topology(16)
        with pytest.raises(ValueError):
            topo.with_degraded_inter_link(0.0)
        with pytest.raises(ValueError):
            topo.with_degraded_inter_link(1.5)


class TestReselectStrategy:
    def test_single_rank_failure(self):
        decision = reselect_strategy(make_cfg(), ndv4_topology(16), [3])
        assert decision.failed_ranks == (3,)
        assert decision.healthy_world == 15
        # Largest multiple of 8 experts that 15 survivors can form.
        assert decision.surviving_world == 8
        assert decision.config.world_size == 8
        assert decision.config.num_global_experts == 8
        # Node 0 lost 1 of its 8 ranks -> asymmetric -> no 2DH.
        assert decision.node_asymmetric
        assert decision.cost.a2a_algorithm is A2AAlgorithm.LINEAR
        assert np.isfinite(decision.cost.total_time)

    def test_whole_node_failure_stays_symmetric(self):
        decision = reselect_strategy(make_cfg(), ndv4_topology(16),
                                     list(range(8, 16)))
        assert decision.healthy_world == 8
        assert decision.surviving_world == 8
        assert not decision.node_asymmetric

    def test_fewer_survivors_than_experts(self):
        # 3 survivors cannot split 8 experts evenly; park one rank.
        decision = reselect_strategy(make_cfg(), ndv4_topology(16),
                                     list(range(13)))
        assert decision.healthy_world == 3
        assert decision.surviving_world == 2
        assert decision.config.experts_per_gpu == pytest.approx(4.0)

    def test_unrecoverable_raises(self):
        with pytest.raises(RuntimeError, match="restore from checkpoint"):
            reselect_strategy(make_cfg(), ndv4_topology(16),
                              list(range(16)))

    def test_link_degradation_raises_cost(self):
        # 31 survivors of 32 re-form a 16-rank group spanning two
        # nodes, so the degraded inter-node fabric is on the critical
        # path of the re-selected strategy.
        cfg, topo = make_cfg(world=32, experts=16), ndv4_topology(32)
        clean = reselect_strategy(cfg, topo, [3])
        degraded = reselect_strategy(cfg, topo, [3],
                                     link_degradation=0.5)
        assert clean.surviving_world == 16
        assert degraded.cost.total_time > clean.cost.total_time

    def test_duplicate_and_unsorted_ranks_normalized(self):
        decision = reselect_strategy(make_cfg(), ndv4_topology(16),
                                     [5, 3, 5])
        assert decision.failed_ranks == (3, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            reselect_strategy(make_cfg(), ndv4_topology(16), [99])
        with pytest.raises(ValueError):
            reselect_strategy(make_cfg(world=8), ndv4_topology(16), [0])

    def test_emits_fault_events(self):
        ob = obs.enable()
        try:
            reselect_strategy(make_cfg(), ndv4_topology(16), [3])
            counters = ob.registry.snapshot()["counters"]
            assert counters["fault.injected"] == 1
            assert counters["fault.recovered"] == 1
            recovered = next(e for e in ob.recorder.events
                             if e.name == "recovered")
            assert recovered.args["kind"] == "strategy_reselection"
            assert recovered.args["world"] == 8
        finally:
            obs.disable()


class TestCompoundFault:
    """Rank loss while the inter-node fabric is already degraded
    (a brownout) — the scenario engine's compound-fault path."""

    def test_reselection_feasible_on_doubly_degraded_topology(self):
        cfg, topo = make_cfg(world=32, experts=16), ndv4_topology(32)
        decision = reselect_strategy(cfg, topo, [3],
                                     link_degradation=0.25)
        assert decision.link_degradation == 0.25
        # The decision's topology carries the derated fabric...
        assert decision.topology.inter_link.bandwidth == pytest.approx(
            topo.inter_link.bandwidth * 0.25)
        # ...and the chosen algorithm is feasible on it given the
        # post-loss node asymmetry.
        candidates = feasible_a2a_algorithms(
            decision.topology,
            symmetric_nodes=not decision.node_asymmetric)
        assert decision.cost.a2a_algorithm in candidates
        assert decision.node_asymmetric
        assert decision.cost.a2a_algorithm is A2AAlgorithm.LINEAR
        assert np.isfinite(decision.cost.total_time)

    def test_baseline_includes_the_preexisting_derate(self):
        cfg, topo = make_cfg(world=32, experts=16), ndv4_topology(32)
        clean = reselect_strategy(cfg, topo, [3])
        compound = reselect_strategy(cfg, topo, [3],
                                     link_degradation=0.25)
        # The link was already slow when the rank died, so the
        # baseline selection must be priced on the derated fabric.
        assert (compound.baseline_cost.total_time
                > clean.baseline_cost.total_time)

    def test_slowdown_isolates_the_rank_loss(self):
        """slowdown must not conflate the two faults: it prices the
        lost rank against a baseline that already pays the brownout."""
        cfg, topo = make_cfg(world=32, experts=16), ndv4_topology(32)
        clean = reselect_strategy(cfg, topo, [3])
        compound = reselect_strategy(cfg, topo, [3],
                                     link_degradation=0.25)
        conflated = (compound.cost.total_time
                     / clean.baseline_cost.total_time)
        assert compound.slowdown < conflated
        assert compound.slowdown > 0

    def test_link_degradation_validation(self):
        cfg, topo = make_cfg(), ndv4_topology(16)
        with pytest.raises(ValueError, match="link_degradation"):
            reselect_strategy(cfg, topo, [3], link_degradation=0.0)
        with pytest.raises(ValueError, match="link_degradation"):
            reselect_strategy(cfg, topo, [3], link_degradation=1.5)

    def test_no_derate_default_unchanged(self):
        cfg, topo = make_cfg(), ndv4_topology(16)
        decision = reselect_strategy(cfg, topo, [3])
        assert decision.link_degradation == 1.0
        assert decision.topology.inter_link.bandwidth == pytest.approx(
            topo.inter_link.bandwidth)


class TestChaosEndToEnd:
    """The registered ``compound_faults`` scenario, end to end."""

    @pytest.fixture(scope="class")
    def chaos(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("chaos-runs")
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_RUNS_DIR", str(root))
            result = run_scenario(get_scenario("compound_faults"),
                                  fast=True)
        return result, RunStore(root).events(result.run_id)

    @staticmethod
    def _entry(result, kind):
        (entry,) = [e for e in result.timeline if e["kind"] == kind]
        return entry

    def test_faults_slow_the_simulation(self, chaos):
        result, _ = chaos
        slowdown = result.metric("model_slowdown").value
        assert np.isfinite(slowdown)
        assert slowdown > 1.0  # faulted makespan > fault-free
        sim = self._entry(result, "sim_clock_fault")
        assert sim["injected"] >= 1
        assert sim["recovered"] >= 1

    def test_training_completes_without_nan(self, chaos):
        result, _ = chaos
        assert result.passed
        assert np.isfinite(result.losses).all()
        skipped = int(result.metric("skipped_steps").value)
        assert len(result.losses) == result.scenario.steps - skipped
        assert np.isfinite(result.metric("final_loss").value)
        assert result.metric("nonfinite_steps").value == 0
        assert 0.0 <= result.eval_accuracy <= 1.0

    def test_recoveries_counted(self, chaos):
        result, events = chaos
        kinds = [e["kind"] for e in events]
        assert kinds.count("fault") >= 3
        assert kinds.count("step_skipped") == 1
        assert kinds.count("ckpt_saved") >= 2
        assert result.metric("skipped_steps").value == 1

    def test_events_attributed_to_steps(self, chaos):
        """The injected expert failure and the non-finite poisoning
        must land on their scheduled steps, and the skipped step must
        be exactly the poisoned one."""
        result, events = chaos
        sc = result.scenario
        (death,) = sc.of_kind(ExpertDeath)
        (poison,) = sc.of_kind(NonFiniteStep)
        faults = {e["data"]["kind"]: e for e in events
                  if e["kind"] == "fault"}
        assert {"expert_failure", "nonfinite_injection",
                "sim_clock_fault"} <= set(faults)
        assert faults["expert_failure"]["step"] == death.step
        assert faults["expert_failure"]["data"]["expert"] == death.expert
        assert faults["nonfinite_injection"]["step"] == poison.step

        skipped = [e["step"] for e in events
                   if e["kind"] == "step_skipped"]
        assert skipped == [poison.step]
        saved = [e["data"]["step"] for e in events
                 if e["kind"] == "ckpt_saved"]
        assert saved == sorted(saved)
        assert all(1 <= s <= sc.steps for s in saved)

    def test_describe_renders(self, chaos):
        result, _ = chaos
        text = result.describe()
        assert "sim_clock_fault" in text
        assert "nonfinite_step" in text
        assert "model_slowdown" in text
        assert "skipped_steps" in text

    def test_deterministic_in_seed(self, chaos):
        result, _ = chaos
        again = run_scenario(get_scenario("compound_faults"), fast=True)
        assert again.losses == result.losses
        assert again.timeline == result.timeline
        assert ([(m.name, m.value) for m in again.metrics
                 if m.kind == "model"]
                == [(m.name, m.value) for m in result.metrics
                    if m.kind == "model"])

    def test_observer_restored(self):
        assert obs.get_observer() is None
        run_scenario(replace(get_scenario("compound_faults"), seed=1),
                     fast=True)
        assert obs.get_observer() is None

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            replace(get_scenario("compound_faults"), steps=3,
                    fast_steps=None)
