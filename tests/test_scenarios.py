"""Tests for the chaos-to-SLO scenario engine (repro.scenarios)."""

import dataclasses

import numpy as np
import pytest

from repro.bench.report import BenchResult, SLOCheck
from repro.cli import main
from repro.cluster.topology import ndv4_topology
from repro.obs.runs import RunStore
from repro.scenarios.engine import price_replacement, run_scenario
from repro.scenarios.library import SCENARIOS, get_scenario
from repro.scenarios.report import emit_scenarios
from repro.scenarios.spec import (
    ElasticResize,
    ExpertDeath,
    LinkBrownout,
    NonFiniteStep,
    RankLoss,
    Scenario,
    SimClockFault,
    SLOSpec,
)


class TestSpecValidation:
    def test_rank_loss_needs_prior_checkpoint(self):
        with pytest.raises(ValueError, match="prior"):
            Scenario(name="x", title="x", seed=0, steps=10,
                     checkpoint_every=4,
                     events=(RankLoss(step=2),))

    def test_rank_loss_past_horizon(self):
        with pytest.raises(ValueError, match="precede"):
            Scenario(name="x", title="x", seed=0, steps=10,
                     checkpoint_every=4,
                     events=(RankLoss(step=10),))

    def test_fast_horizon_also_validated(self):
        with pytest.raises(ValueError, match="precede"):
            Scenario(name="x", title="x", seed=0, steps=16,
                     fast_steps=8, checkpoint_every=4,
                     events=(RankLoss(step=9),))

    def test_expert_death_layer_range(self):
        # num_blocks=2 -> a single MoE layer (every other block).
        with pytest.raises(ValueError, match="out of range"):
            Scenario(name="x", title="x", seed=0, steps=10,
                     num_blocks=2,
                     events=(ExpertDeath(step=1, layer=1),))

    def test_expert_death_expert_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Scenario(name="x", title="x", seed=0, steps=10,
                     num_experts=4,
                     events=(ExpertDeath(step=1, expert=4),))

    def test_duplicate_rank_loss_step(self):
        with pytest.raises(ValueError, match="one rank loss per step"):
            Scenario(name="x", title="x", seed=0, steps=10,
                     checkpoint_every=4,
                     events=(RankLoss(step=5, ranks=(0,)),
                             RankLoss(step=5, ranks=(1,))))

    def test_unknown_event_rejected(self):
        with pytest.raises(TypeError, match="unknown scenario event"):
            Scenario(name="x", title="x", seed=0, steps=10,
                     events=("boom",))

    def test_event_validation(self):
        with pytest.raises(ValueError):
            LinkBrownout(step=3, end_step=3)
        with pytest.raises(ValueError):
            LinkBrownout(step=1, end_step=5, factor=0.0)
        with pytest.raises(ValueError):
            RankLoss(step=5, ranks=())
        with pytest.raises(ValueError):
            RankLoss(step=5, recovery_deadline_s=0.0)
        with pytest.raises(ValueError):
            ElasticResize(step=1, new_world=0)
        with pytest.raises(ValueError):
            SLOSpec(loss_band=(2.0, 1.0))
        with pytest.raises(ValueError):
            SLOSpec(max_model_slowdown=0.0)

    def test_nonfinite_step_validation(self):
        with pytest.raises(ValueError, match="step"):
            NonFiniteStep(step=-1)
        with pytest.raises(ValueError, match="horizon"):
            Scenario(name="x", title="x", seed=0, steps=10,
                     events=(NonFiniteStep(step=10),))
        sc = Scenario(name="x", title="x", seed=0, steps=10,
                      events=(NonFiniteStep(step=7), NonFiniteStep(step=2)))
        assert [ev.step for ev in sc.of_kind(NonFiniteStep)] == [2, 7]

    def test_sim_clock_fault_validation(self):
        for bad in (dict(straggler=0.0), dict(straggler=1.5),
                    dict(link=-0.1), dict(failure_timeout=-1.0),
                    dict(step=-1)):
            with pytest.raises(ValueError):
                SimClockFault(**{"step": 0, **bad})
        with pytest.raises(ValueError, match="horizon"):
            Scenario(name="x", title="x", seed=0, steps=10,
                     fast_steps=6, events=(SimClockFault(step=8),))
        sc = Scenario(name="x", title="x", seed=0, steps=10,
                      events=(SimClockFault(step=3, link=0.5),))
        assert sc.of_kind(SimClockFault) == [
            SimClockFault(step=3, link=0.5)]

    def test_resolved_fast_shrinks_steps(self):
        sc = Scenario(name="x", title="x", seed=0, steps=16,
                      fast_steps=8)
        assert sc.resolved(fast=False).steps == 16
        assert sc.resolved(fast=True).steps == 8
        assert sc.resolved(fast=True).fast_steps is None

    def test_brownout_factor_at(self):
        sc = Scenario(name="x", title="x", seed=0, steps=12,
                      events=(LinkBrownout(step=3, end_step=8,
                                           factor=0.25),))
        assert sc.brownout_factor_at(2) == (1.0, False)
        assert sc.brownout_factor_at(3) == (0.25, True)
        assert sc.brownout_factor_at(8) == (1.0, False)


class TestLibrary:
    def test_at_least_four_scenarios(self):
        assert len(SCENARIOS) >= 4

    def test_expected_names_present(self):
        assert {"rank_loss_deadline", "expert_death_loss_slo",
                "link_brownout_switch", "elastic_scale",
                "compound_faults"} <= set(SCENARIOS)

    def test_every_scenario_has_a_hard_model_bound(self):
        """Each named scenario must carry >= 1 deterministic SLO
        assertion (not just wall-clock bounds)."""
        for name in sorted(SCENARIOS):
            slo = get_scenario(name).slo
            hard = (slo.loss_band is not None
                    or slo.max_loss_parity is not None
                    or slo.max_model_slowdown is not None
                    or slo.max_replacement_seconds is not None
                    or slo.min_scaleup_throughput_ratio is not None
                    or slo.require_a2a_switch)
            assert hard, name

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="known:.*rank_loss"):
            get_scenario("nope")


class TestSLOCheck:
    def test_ops(self):
        assert SLOCheck("a", 1.0, 2.0, "<=").passed
        assert not SLOCheck("a", 3.0, 2.0, "<=").passed
        assert SLOCheck("a", 3.0, 2.0, ">=").passed
        assert not SLOCheck("a", 1.0, 2.0, ">=").passed

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            SLOCheck("a", 1.0, 2.0, "==")

    def test_describe(self):
        text = SLOCheck("lat", 3.0, 2.0, "<=", measured=True).describe()
        assert "[FAIL]" in text and "wall-clock" in text


class TestPriceReplacement:
    def test_scale_up_moves_shards(self):
        topo = ndv4_topology(32)
        secs, moved = price_replacement(16, 32, 8, topo, 8e6)
        assert secs > 0
        assert moved > 0

    def test_identity_resize_is_free(self):
        topo = ndv4_topology(16)
        assert price_replacement(16, 16, 8, topo, 8e6) == (0.0, 0.0)

    def test_deterministic(self):
        topo = ndv4_topology(32)
        assert (price_replacement(16, 32, 8, topo, 8e6)
                == price_replacement(16, 32, 8, topo, 8e6))

    def test_scale_down_also_priced(self):
        topo = ndv4_topology(32)
        secs, moved = price_replacement(32, 8, 8, topo, 8e6)
        assert secs > 0 and moved > 0

    def test_small_topology_rejected(self):
        with pytest.raises(ValueError, match="topology spans"):
            price_replacement(16, 32, 8, ndv4_topology(16), 8e6)

    def test_degraded_fabric_costs_more(self):
        topo = ndv4_topology(32)
        slow = topo.with_degraded_inter_link(0.25)
        fast_s, _ = price_replacement(16, 32, 8, topo, 8e6)
        slow_s, _ = price_replacement(16, 32, 8, slow, 8e6)
        assert slow_s > fast_s


class TestRunScenario:
    @pytest.fixture(scope="class")
    def results(self):
        return {name: run_scenario(get_scenario(name), fast=True)
                for name in sorted(SCENARIOS)}

    def test_all_named_scenarios_pass(self, results):
        for name, res in results.items():
            assert res.passed, res.describe()
            assert res.checks, name

    def test_rank_loss_recovers_under_deadline(self, results):
        res = results["rank_loss_deadline"]
        deadline = next(c for c in res.checks
                        if c.name == "recovery_deadline_0")
        assert deadline.measured and deadline.passed
        assert res.metric("replay_steps_0").value >= 1
        kinds = [ev["kind"] for ev in res.timeline]
        assert "rank_loss" in kinds

    def test_expert_death_bounded_by_twin(self, results):
        res = results["expert_death_loss_slo"]
        parity = next(c for c in res.checks if c.name == "loss_parity")
        assert parity.passed
        deaths = [ev for ev in res.timeline
                  if ev["kind"] == "expert_death"]
        assert len(deaths) == 2
        assert {d["layer"] for d in deaths} == {0, 1}

    @staticmethod
    def _expert_failures(scenario, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        res = run_scenario(scenario, fast=True)
        return [e for e in RunStore(tmp_path).events(res.run_id)
                if e["kind"] == "fault"
                and e["data"]["kind"] == "expert_failure"]

    @pytest.mark.parametrize("name", ["compound_faults",
                                      "expert_death_loss_slo"])
    def test_one_fault_event_per_expert_death(self, name, tmp_path,
                                              monkeypatch):
        """``fail_expert``'s ``fault`` event is the record of an
        expert death — layer included, so two deaths in different
        layers stay distinguishable; the engine's hook adds no second
        one."""
        sc = get_scenario(name)
        failures = self._expert_failures(sc, tmp_path, monkeypatch)
        assert ([(e["step"], e["data"]["layer"], e["data"]["expert"])
                 for e in failures]
                == [(d.step, d.layer, d.expert)
                    for d in sc.of_kind(ExpertDeath)])

    @pytest.mark.parametrize("death_step", [6, 10])
    def test_rank_loss_replay_keeps_one_fault_event(
            self, death_step, tmp_path, monkeypatch):
        """Restore from the step-8 checkpoint: a death before it comes
        back through the checkpoint's mask (no new event), one after it
        is re-applied by the replay (re-emitting what compaction
        dropped).  Either way the stream holds exactly one."""
        sc = dataclasses.replace(
            get_scenario("rank_loss_deadline"), name="death_rank_loss",
            fast_steps=14,
            events=(ExpertDeath(step=death_step, layer=0, expert=2),
                    RankLoss(step=11, ranks=(3,))))
        failures = self._expert_failures(sc, tmp_path, monkeypatch)
        assert [e["step"] for e in failures] == [death_step]

    def test_brownout_switches_a2a(self, results):
        res = results["link_brownout_switch"]
        assert res.metric("a2a_switched").value == 1.0
        brown = next(ev for ev in res.timeline
                     if ev["kind"] == "link_brownout")
        assert brown["a2a"] == "2dh->linear"
        assert any(ev["kind"] == "brownout_cleared"
                   for ev in res.timeline)

    def test_elastic_prices_movement(self, results):
        res = results["elastic_scale"]
        assert res.metric("replacement_seconds").value > 0
        assert res.metric("replacement_moved_mb").value > 0
        assert res.metric("scaleup_throughput_ratio").value > 1.2
        resizes = [ev for ev in res.timeline
                   if ev["kind"] == "elastic_resize"]
        assert [ev["world"] for ev in resizes] == ["16->32", "32->8"]

    def test_losses_finite_and_described(self, results):
        for res in results.values():
            assert np.isfinite(res.losses).all()
            text = res.describe()
            assert "SLO report" in text and "PASS" in text

    def test_model_metrics_deterministic(self, results):
        """Same seed, same scenario -> bitwise-identical model-kind
        metrics (the BENCH_scenarios.json determinism contract)."""
        again = run_scenario(get_scenario("elastic_scale"), fast=True)
        base = results["elastic_scale"]
        for m in base.metrics:
            if m.kind != "model":
                continue
            assert again.metric(m.name).value == m.value, m.name

    def test_failing_slo_reported_not_raised(self):
        sc = dataclasses.replace(
            get_scenario("elastic_scale"),
            slo=SLOSpec(loss_band=(0.0, 0.01)))
        res = run_scenario(sc, fast=True)
        assert not res.passed
        assert res.metric("slo_pass").value == 0.0
        failed = [c for c in res.checks if not c.passed]
        assert [c.name for c in failed] == ["final_loss_max"]

    def test_empty_sim_clock_fault_prices_to_one(self):
        """No straggler, no link window, no op failure: the faulted
        simulation *is* the fault-free one."""
        res = run_scenario(Scenario(
            name="x", title="x", seed=0, steps=4,
            events=(SimClockFault(step=1),),
            slo=SLOSpec(max_model_slowdown=1.0)))
        assert res.metric("model_slowdown").value == 1.0
        assert res.passed
        (entry,) = [e for e in res.timeline
                    if e["kind"] == "sim_clock_fault"]
        assert entry["injected"] == entry["recovered"] == 0

    def test_unknown_metric_rejected(self, results):
        with pytest.raises(KeyError):
            results["elastic_scale"].metric("bogus")


class TestBenchEmission:
    def test_emit_round_trip(self, tmp_path):
        res = run_scenario(get_scenario("elastic_scale"), fast=True)
        emit_scenarios([res], fast=True, directory=tmp_path)
        loaded = BenchResult.load(tmp_path / "BENCH_scenarios.json")
        names = {m.name for m in loaded.metrics}
        assert "elastic_scale.slo_pass" in names
        assert "elastic_scale.replacement_seconds" in names
        assert loaded.config["mode"] == "fast"
        assert loaded.config["seeds"]["elastic_scale"] == 7
        # Namespacing preserves metric kinds for the regression gate.
        pass_metric = next(m for m in loaded.metrics
                           if m.name == "elastic_scale.slo_pass")
        assert pass_metric.kind == "model"
        assert pass_metric.value == 1.0


class TestRunRegistryIntegration:
    @pytest.fixture()
    def recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        res = run_scenario(get_scenario("rank_loss_deadline"),
                           fast=True)
        return res, RunStore(tmp_path)

    def test_events_and_summary_recorded(self, recorded):
        res, store = recorded
        assert res.run_id is not None
        manifest = store.manifest(res.run_id)
        assert manifest.status == "complete"
        assert manifest.summary["scenario"] == "rank_loss_deadline"
        assert manifest.summary["passed"] is True
        kinds = {e["kind"] for e in store.events(res.run_id)}
        assert {"scenario", "fault", "recovery",
                "slo_check"} <= kinds

    def test_slo_checks_in_stream(self, recorded):
        res, store = recorded
        checks = [e for e in store.events(res.run_id)
                  if e["kind"] == "slo_check"]
        assert len(checks) == len(res.checks)
        assert all(c["data"]["passed"] for c in checks)

    def test_replayed_steps_compacted(self, recorded):
        """After the rank-loss restore the engine compacts its own run:
        every training step appears exactly once in the stream."""
        res, store = recorded
        steps = [e["step"] for e in store.events(res.run_id)
                 if e["kind"] == "step"]
        assert len(steps) == len(set(steps))
        assert len(steps) == len(res.losses)


class TestNonFiniteStepAcrossRankLoss:
    """A poisoned step before a rank loss is skipped exactly once,
    whether the restored checkpoint already holds the skip (step 3
    completes the boundary checkpoint itself — the trainer must still
    write it) or the replay runs into it again (step 5)."""

    @pytest.mark.parametrize("poisoned", [3, 5])
    def test_skipped_once(self, poisoned, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        sc = Scenario(
            name="x", title="x", seed=2, steps=10, checkpoint_every=4,
            events=(NonFiniteStep(step=poisoned), RankLoss(step=7)),
            slo=SLOSpec(max_skipped_steps=1))
        res = run_scenario(sc)
        assert res.passed, res.describe()
        assert res.metric("skipped_steps").value == 1
        assert res.metric("replay_steps_0").value == 3
        assert len(res.losses) == sc.steps - 1
        events = RunStore(tmp_path).events(res.run_id)
        assert [e["step"] for e in events
                if e["kind"] == "step_skipped"] == [poisoned]
        steps = [e["step"] for e in events if e["kind"] == "step"]
        assert sorted(steps) == [s for s in range(sc.steps)
                                 if s != poisoned]

    def test_replay_is_bit_identical(self):
        """The resumed segment re-applies the poisoning, so the run
        with the rank loss ends exactly where the one without does."""
        base = dict(name="x", title="x", seed=2, steps=10,
                    checkpoint_every=4,
                    slo=SLOSpec(max_skipped_steps=1))
        plain = run_scenario(Scenario(
            events=(NonFiniteStep(step=5),), **base))
        lossy = run_scenario(Scenario(
            events=(NonFiniteStep(step=5), RankLoss(step=7)), **base))
        assert lossy.losses == plain.losses


class TestScenarioCLI:
    def test_list(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in sorted(SCENARIOS):
            assert name in out

    def test_single_scenario_passes(self, capsys):
        assert main(["scenario", "elastic_scale", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "-> PASS" in out
        assert "elastic_resize" in out

    def test_all_emits_bench_record(self, tmp_path, capsys,
                                    monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
        assert main(["scenario", "--all", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "scenario SLO report" in out
        assert (tmp_path / "BENCH_scenarios.json").exists()

    def test_failing_slo_exits_nonzero(self, capsys, monkeypatch):
        broken = dataclasses.replace(
            get_scenario("elastic_scale"),
            slo=SLOSpec(loss_band=(0.0, 0.01)))
        monkeypatch.setitem(SCENARIOS, "elastic_scale", broken)
        assert main(["scenario", "elastic_scale", "--fast"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_seed_override(self, capsys):
        # A foreign seed may legitimately miss the loss band; the
        # point is that the override reaches the engine.
        rc = main(["scenario", "elastic_scale", "--fast",
                   "--seed", "123"])
        assert rc in (0, 1)
        assert "seed 123" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenario", "nope"])

    def test_bare_invocation_rejected(self):
        with pytest.raises(SystemExit, match="give a scenario name"):
            main(["scenario"])
