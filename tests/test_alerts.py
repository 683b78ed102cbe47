"""Tests for the declarative alert engine (repro.obs.alerts) and the
observability self-overhead ledger (repro.obs.overhead)."""

import pytest

from repro.obs.alerts import (
    ALERTS_FAMILY,
    RECOVERY_DEADLINE_TICKS,
    AlertEngine,
    AlertRule,
    default_rules,
    event_samples,
    labeled_name,
)
from repro.obs import get_ledger, set_ledger, set_run
from repro.obs.overhead import (
    OverheadLedger,
    measuring_overhead,
    overhead_metrics,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.runs import RunStore, RunWriter


def routing_event(step, layer=0, **data):
    return {"kind": "routing", "step": step,
            "data": {"layer": layer, **data}}


def step_event(step, **data):
    return {"kind": "step", "step": step, "data": data}


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    set_run(None)
    set_ledger(None)


def run_series(engine, metric, values, registry=None, run=None):
    """Feed one value per tick; return (tick, name, state) tuples."""
    out = []
    for tick, value in enumerate(values):
        for tr in engine.evaluate(tick, {metric: value},
                                  registry=registry, run=run):
            out.append((tick, tr.rule.name, tr.state))
    return out


class TestRuleValidation:
    def test_rejects_bad_op_kind_and_hold(self):
        with pytest.raises(ValueError):
            AlertRule(name="x", metric="m", op="!=")
        with pytest.raises(ValueError):
            AlertRule(name="x", metric="m", kind="delta")
        with pytest.raises(ValueError):
            AlertRule(name="x", metric="m", for_ticks=-1)
        with pytest.raises(ValueError):
            AlertRule(name="", metric="m")

    @pytest.mark.parametrize("kind", ["rate", "absent"])
    def test_rejects_deleted_kinds(self, kind):
        # Only threshold and ewma_z rules exist; no rule used the others.
        with pytest.raises(ValueError, match="kind must be one of"):
            AlertRule(name="x", metric="m", kind=kind)

    def test_rejects_duplicate_rule_names(self):
        rule = AlertRule(name="dup", metric="m")
        with pytest.raises(ValueError):
            AlertEngine([rule, AlertRule(name="dup", metric="n")])


class TestFireHoldResolve:
    def test_fires_only_after_hold(self):
        engine = AlertEngine([AlertRule(
            name="hot", metric="m", op=">", threshold=1.0,
            for_ticks=2)])
        got = run_series(engine, "m", [2.0, 2.0, 2.0, 0.5])
        assert got == [(2, "hot", "firing"), (3, "hot", "resolved")]

    @pytest.mark.parametrize("hold", [0, 1, 2, 5])
    def test_hold_fires_at_first_bad_tick_plus_for_ticks(self, hold):
        # The Prometheus ``for:`` boundary: bad from tick 3 on, the
        # rule fires at 3 + for_ticks (the for_ticks+1-th bad tick),
        # not one tick earlier.
        engine = AlertEngine([AlertRule(
            name="hot", metric="m", op=">", threshold=1.0,
            for_ticks=hold)])
        got = run_series(engine, "m", [0.0] * 3 + [2.0] * (hold + 2))
        assert got == [(3 + hold, "hot", "firing")]

    def test_blip_shorter_than_hold_never_fires(self):
        engine = AlertEngine([AlertRule(
            name="hot", metric="m", op=">", threshold=1.0,
            for_ticks=2)])
        got = run_series(engine, "m", [2.0, 0.5, 2.0, 0.5, 2.0, 0.5])
        assert got == []

    def test_zero_hold_fires_immediately(self):
        engine = AlertEngine([AlertRule(
            name="hot", metric="m", op=">", threshold=1.0)])
        got = run_series(engine, "m", [2.0])
        assert got == [(0, "hot", "firing")]

    def test_hysteresis_holds_between_bounds(self):
        # Fires above 10; with resolve_threshold 8 it must NOT
        # resolve at 9 (inside the hysteresis band), only below 8.
        engine = AlertEngine([AlertRule(
            name="hot", metric="m", op=">", threshold=10.0,
            resolve_threshold=8.0)])
        got = run_series(engine, "m", [11.0, 9.0, 9.5, 7.0])
        assert got == [(0, "hot", "firing"), (3, "hot", "resolved")]

    def test_without_hysteresis_resolves_at_threshold(self):
        # A rule on "faults.outstanding > 0" must resolve once the
        # count is back to exactly 0 (no strict crossing possible).
        engine = AlertEngine([AlertRule(
            name="faulty", metric="m", op=">", threshold=0.0)])
        got = run_series(engine, "m", [1.0, 1.0, 0.0])
        assert got == [(0, "faulty", "firing"),
                       (2, "faulty", "resolved")]

    def test_missing_sample_holds_state(self):
        engine = AlertEngine([AlertRule(
            name="hot", metric="m", op=">", threshold=1.0)])
        engine.evaluate(0, {"m": 2.0})
        engine.evaluate(1, {})          # sample absent: still firing
        assert engine.firing() == ["hot"]


class TestDeterminismAndSinks:
    SERIES = [0.2, 0.2, 2.0, 2.0, 2.0, 0.1, 2.0, 0.1]

    def _run(self):
        engine = AlertEngine([AlertRule(
            name="hot", metric="m", op=">", threshold=1.0,
            for_ticks=1)])
        return run_series(engine, "m", self.SERIES)

    def test_same_inputs_same_transition_sequence(self):
        assert self._run() == self._run()

    def test_transitions_land_in_registry_and_run(self, tmp_path):
        registry = MetricsRegistry()
        run = RunWriter.create(root=tmp_path, run_id="r1", seed=0,
                               config={})
        engine = AlertEngine([AlertRule(
            name="hot", metric="m", op=">", threshold=1.0,
            severity="critical")])
        run_series(engine, "m", [2.0, 0.5, 2.0], registry=registry,
                   run=run)
        run.finalize()

        gname = labeled_name(ALERTS_FAMILY,
                             {"alertname": "hot",
                              "severity": "critical"})
        assert registry.gauges[gname].value == 1.0
        assert registry.counters["alerts.fired"].value == 2

        events = [e for e in RunStore(tmp_path).events("r1")
                  if e["kind"] == "alert"]
        assert [(e["step"], e["data"]["state"]) for e in events] == [
            (0, "firing"), (1, "resolved"), (2, "firing")]
        assert events[0]["data"]["alertname"] == "hot"
        assert events[0]["data"]["severity"] == "critical"
        assert "[firing]" in events[0]["data"]["message"]

    def test_alerts_family_lands_in_registry_snapshot(self):
        registry = MetricsRegistry()
        engine = AlertEngine([
            AlertRule(name="a", metric="m", op=">", threshold=1.0),
            AlertRule(name="b", metric="m", op=">", threshold=1.5,
                      severity="critical"),
        ])
        engine.evaluate(0, {"m": 2.0}, registry=registry)
        engine.evaluate(1, {"m": 1.2}, registry=registry)
        # The snapshot is what a run keeps as metrics.json.
        gauges = registry.snapshot()["gauges"]
        assert gauges == {
            'ALERTS{alertname="a",severity="warn"}': 1.0,
            'ALERTS{alertname="b",severity="critical"}': 0.0,
        }

    def test_labeled_name_escapes_hostile_values(self):
        raw = 'ha"s\\esc\npe}s'
        assert labeled_name("fam", {"k": raw, "a": "1"}) == \
            'fam{a="1",k="ha\\"s\\\\esc\\npe}s"}'


class TestFaultTracking:
    def test_stream_hook_counts_faults_and_recoveries(self):
        engine = AlertEngine(default_rules())
        engine.stream_hook({"kind": "fault", "data": {}})
        engine.stream_hook({"kind": "step"})
        assert engine.outstanding_faults == 1
        engine.stream_hook({"kind": "recovery", "data": {}})
        engine.stream_hook({"kind": "recovery", "data": {}})
        assert engine.outstanding_faults == 0  # floored at zero

    def test_recovery_overdue_fires_then_resolves(self):
        deadline = RECOVERY_DEADLINE_TICKS
        engine = AlertEngine(default_rules())
        engine.stream_hook({"kind": "fault"})
        out = []
        for tick in range(deadline + 3):
            if tick == deadline + 1:
                engine.stream_hook({"kind": "recovery"})
            for tr in engine.evaluate(tick, {}):
                out.append((tick, tr.rule.name, tr.state))
        assert out == [(deadline, "recovery_overdue", "firing"),
                       (deadline + 1, "recovery_overdue", "resolved")]


class TestDefaultRules:
    def test_serving_rules_gated_on_bounds(self):
        base = {r.name for r in default_rules()}
        assert "serving_p99_high" not in base
        assert "serving_goodput_low" not in base
        full = {r.name for r in default_rules(p99_ms=50.0,
                                              min_goodput_rps=100.0)}
        assert {"serving_p99_high", "serving_goodput_low",
                "routing_entropy_floor", "dead_expert",
                "drop_rate_high", "recovery_overdue"} <= full

    def test_dead_expert_detected_from_expert_load(self):
        # for_ticks=5: starved from tick 0, firing at tick 5 — named
        # by layer and expert, once, while the others stay quiet.
        engine = AlertEngine(default_rules())
        out = []
        for tick in range(8):
            engine.observe(routing_event(
                tick, entropy=0.9, dropped_fraction=0.0,
                expert_load=[10, 10, 10, 0]))
            for tr in engine.observe(step_event(tick, loss=1.0)):
                out.append((tick, tr.rule.name, dict(tr.labels)))
        assert out == [(5, "dead_expert", {"layer": 0, "expert": 3})]

    def test_health_rules_in_default_pack(self):
        by_name = {r.name: r for r in default_rules()}
        for name in ("entropy_drift", "imbalance_drift", "grad_spike"):
            assert by_name[name].kind == "ewma_z"
        assert by_name["gini_ceiling"].severity == "critical"
        assert by_name["capacity_overflow"].threshold == 3.0


class TestRoutingSamples:
    def test_min_expert_share_normalized(self):
        s = event_samples(routing_event(
            0, entropy=0.8, dropped_fraction=0.1,
            expert_load=[10, 10, 10, 10]))
        layer = (("layer", 0),)
        assert s["routing.entropy"] == {layer: 0.8}
        assert list(s["routing.expert_share"].values()) == \
            pytest.approx([1.0] * 4)
        s = event_samples(routing_event(0, layer=2,
                                        expert_load=[0, 20, 20, 20]))
        dead = (("layer", 2), ("expert", 0))
        assert s["routing.expert_share"][dead] == 0.0
        assert "routing.entropy" not in s

    def test_step_and_serve_batch_scalars(self):
        assert event_samples(step_event(3, loss=1.5, grad_norm=2.0)) == {
            "train.loss": {(): 1.5}, "train.grad_norm": {(): 2.0}}
        s = event_samples({"kind": "serve_batch", "step": 1, "data": {
            "p99_ms": 40.0, "queue_depth": 3, "goodput_rps": 90.0}})
        assert s == {"serve.model_p99_ms": {(): 40.0},
                     "serve.queue_depth": {(): 3.0},
                     "serve.goodput_rps": {(): 90.0}}
        assert event_samples({"kind": "eval", "data": {}}) == {}

    def test_layers_are_separate_series(self):
        # No worst-of-layers merge: layer 1 collapses, layer 0 is
        # healthy, and only layer 1's series fires.
        engine = AlertEngine(default_rules())
        fired = []
        for tick in range(5):
            engine.observe(routing_event(tick, layer=0, entropy=0.9))
            engine.observe(routing_event(tick, layer=1, entropy=0.4))
            fired += engine.observe(step_event(tick, loss=1.0))
        assert [(t.tick, t.rule.name, dict(t.labels)["layer"])
                for t in fired] == [(3, "routing_entropy_floor", 1)]
        assert engine.firing() == ["routing_entropy_floor"]


class TestObserve:
    def test_ticks_on_step_skipped_and_serve_batch(self):
        engine = AlertEngine([AlertRule(
            name="slow", metric="serve.model_p99_ms", op=">",
            threshold=10.0)])
        assert engine.observe({"kind": "serve_request", "step": 0,
                               "data": {}}) == []
        fired = engine.observe({"kind": "serve_batch", "step": 4,
                                "data": {"p99_ms": 20.0}})
        assert [(t.tick, t.state) for t in fired] == [(4, "firing")]
        # A skipped step carries no samples but still advances holds.
        engine = AlertEngine(default_rules())
        engine.observe({"kind": "fault", "step": 0, "data": {}})
        for step in range(RECOVERY_DEADLINE_TICKS):
            assert engine.observe(step_event(step, loss=1.0)) == []
        fired = engine.observe({"kind": "step_skipped",
                                "step": RECOVERY_DEADLINE_TICKS,
                                "data": {"step": RECOVERY_DEADLINE_TICKS}})
        assert [t.rule.name for t in fired] == ["recovery_overdue"]

    def test_routing_samples_wait_for_the_closing_event(self):
        engine = AlertEngine([AlertRule(
            name="skew", metric="routing.gini", op=">",
            threshold=0.8)])
        assert engine.observe(routing_event(7, gini=0.9)) == []
        assert engine.firing() == []
        fired = engine.observe(step_event(7, loss=1.0))
        assert [(t.tick, dict(t.labels)["layer"], t.value)
                for t in fired] == [(7, 0, 0.9)]

    def test_replaying_a_recorded_run_reproduces_its_alerts(
            self, tmp_path):
        """Replay equivalence: events.jsonl through a fresh engine
        gives exactly the alert events the in-process engine wrote
        (tick, name, state, labels)."""
        import numpy as np

        from repro.nn.models import MoEClassifier
        from repro.obs.runs import recording_run
        from repro.train.data import ClusteredTokenTask
        from repro.train.trainer import train_model

        task = ClusteredTokenTask(num_clusters=8, input_dim=8,
                                  num_classes=4, noise=0.4, seed=0)
        model = MoEClassifier(8, 16, 32, 4, num_blocks=2,
                              num_experts=8, top_k=2,
                              rng=np.random.default_rng(0))

        def hook(step, m):
            if step == 5:
                m.fail_expert(0, 1)

        with recording_run(root=tmp_path, run_id="r", seed=0,
                           created_at=1.0):
            result = train_model(model, task.sample(512),
                                 task.sample(128), steps=40,
                                 batch_size=64, step_hook=hook)
        store = RunStore(tmp_path)
        events = store.events("r")
        recorded = [
            (e["step"], e["data"]["alertname"], e["data"]["state"],
             e["data"].get("layer"), e["data"].get("expert"))
            for e in events if e["kind"] == "alert"]
        engine = AlertEngine(default_rules())
        replayed = [(t.tick, t.rule.name, t.state,
                     dict(t.labels).get("layer"),
                     dict(t.labels).get("expert"))
                    for e in events for t in engine.observe(e)]
        assert replayed == recorded
        # One alert stream: the failed expert is reported once, by
        # name, and the manifest counts what the stream holds.
        dead = [r for r in recorded if r[1] == "dead_expert"]
        assert dead == [(10, "dead_expert", "firing", 0, 1)]
        firing = [r for r in recorded if r[2] == "firing"]
        assert store.manifest("r").summary["alerts"] == len(firing)
        assert len(result.health_alerts) == len(firing)


class TestOverheadLedger:
    def test_accumulates_and_attributes(self):
        led = OverheadLedger()
        led.add("metrics", 100)
        led.add("metrics", 50)
        led.add("events", 25)
        led.observe_step(1000)
        led.observe_step(750)
        assert led.overhead_ns == 175
        assert led.fraction() == pytest.approx(175 / 1750)
        assert led.counts["metrics"] == 2
        assert led.totals["events"] == 25

    def test_fraction_safe_with_no_steps(self):
        assert OverheadLedger().fraction() == 0.0

    def test_measuring_overhead_installs_and_restores(self):
        assert get_ledger() is None
        with measuring_overhead() as led:
            assert get_ledger() is led
        assert get_ledger() is None

    def test_engine_attributes_alert_time_when_measuring(self):
        engine = AlertEngine([AlertRule(name="hot", metric="m",
                                        op=">", threshold=1.0)])
        with measuring_overhead() as led:
            engine.evaluate(0, {"m": 2.0})
        assert led.counts["alerts"] == 1
        assert led.totals["alerts"] > 0

    def test_event_fold_is_charged_to_alerts_too(self):
        # The former health monitor's cost was invisible to the
        # ledger; every detector now runs behind observe/evaluate.
        engine = AlertEngine(default_rules())
        with measuring_overhead() as led:
            engine.observe(routing_event(0, entropy=0.9,
                                         expert_load=[4, 4]))
            assert led.counts["alerts"] == 1    # the fold
            engine.observe(step_event(0, loss=1.0))
        assert led.counts["alerts"] == 3        # fold + evaluation
        assert led.totals["alerts"] > 0

    def test_overhead_metrics_gate_shape(self):
        led = OverheadLedger()
        led.add("trace", 10)
        led.observe_step(1000)
        metrics = {m.name: m for m in overhead_metrics(
            led, {"step": 8, "routing": 16})}
        gated = metrics["overhead_fraction"]
        assert gated.kind == "model"
        assert gated.higher_is_better is False
        assert gated.tolerance == 0.0
        assert metrics["steps"].value == 1.0
        assert metrics["events_routing"].value == 16.0
        assert metrics["trace_ms"].kind == "measured"
