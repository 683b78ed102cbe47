"""Health rule-pack tests: the online MoE training-health detectors
(EWMA drift, floors/ceilings, dead experts, gradient spikes) as
``ewma_z`` / per-series rules of the one alert engine
(repro.obs.alerts).  Every behaviour the former ``HealthMonitor``
suite checked is checked here against ``AlertEngine``."""

import json
import math

import numpy as np
import pytest

from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    AlertTransition,
    EwmaDetector,
    default_rules,
)
from repro.obs import get_run
from repro.obs.loop import LoopTelemetry
from repro.obs.runs import RunStore, recording_run

HEALTHY_LOAD = (16,) * 8


def tick(engine, step, *layers, grad_norm=None):
    """One training step: a ``routing`` event per layer payload, then
    the closing ``step`` event.  Returns the step's transitions."""
    for index, payload in enumerate(layers):
        data = {"layer": index, "entropy": 0.9, "gini": 0.1,
                "dropped_fraction": 0.0, "needed_capacity_factor": 1.0,
                "expert_load": HEALTHY_LOAD, **payload}
        engine.observe({"kind": "routing", "step": step, "data": data})
    data = {"loss": 1.0}
    if grad_norm is not None:
        data["grad_norm"] = grad_norm
    return engine.observe({"kind": "step", "step": step, "data": data})


def fired(transitions):
    return [(t.rule.name, t.tick) for t in transitions
            if t.state == "firing"]


def ewma(name, metric, op, threshold, warmup):
    return AlertRule(name=name, metric=metric, kind="ewma_z", op=op,
                     threshold=threshold, warmup=warmup)


ENTROPY_FLOOR = AlertRule(name="entropy_collapse",
                          metric="routing.entropy", op="<",
                          threshold=0.5, severity="critical")


def dead_expert(window):
    """Starved for ``window`` consecutive steps = ``for_ticks`` of
    ``window - 1`` after the first one."""
    return AlertRule(name="dead_expert", metric="routing.expert_share",
                     op="<", threshold=0.1, for_ticks=window - 1,
                     severity="critical", resolve_threshold=0.15)


class TestEwmaDetector:
    def test_no_score_during_warmup(self):
        det = EwmaDetector(alpha=0.2, warmup=3)
        assert det.update(1.0) == 0.0
        assert det.update(100.0) == 0.0   # count=1 < warmup
        assert det.update(100.0) == 0.0   # count=2 < warmup

    def test_scores_against_pre_update_moments(self):
        det = EwmaDetector(alpha=0.5, warmup=1)
        det.update(0.0)
        det.update(2.0)                   # mean=1.0, var=0.5*(0+0.5*4)=1
        z = det.update(3.0)
        assert z == pytest.approx((3.0 - 1.0) / math.sqrt(1.0))

    def test_zero_variance_yields_zero(self):
        det = EwmaDetector(alpha=0.3, warmup=1)
        for _ in range(10):
            assert det.update(5.0) == 0.0

    def test_deterministic(self):
        values = list(np.random.default_rng(0).normal(size=50))
        a = EwmaDetector(alpha=0.15, warmup=8)
        b = EwmaDetector(alpha=0.15, warmup=8)
        assert [a.update(v) for v in values] == \
               [b.update(v) for v in values]

    def test_spike_scores_high(self):
        det = EwmaDetector(alpha=0.15, warmup=4)
        for v in [1.0, 1.1, 0.9, 1.0, 1.05, 0.95]:
            det.update(v)
        assert det.update(10.0) > 6.0

    def test_no_nan_under_raise(self):
        det = EwmaDetector(alpha=0.15, warmup=2)
        with np.errstate(all="raise"):
            for v in [0.0, 0.0, 0.0, 1e-300, 0.0]:
                assert math.isfinite(det.update(v))


class TestHealthConfig:
    """The detectors' knobs are rule fields now; bad ones still raise."""

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            AlertRule(name="z", metric="m", kind="ewma_z", alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            AlertRule(name="z", metric="m", kind="ewma_z", alpha=1.5)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="for_ticks"):
            dead_expert(window=0)


class TestEntropyDetector:
    def test_floor_breach_is_critical_and_latched(self):
        engine = AlertEngine([ENTROPY_FLOOR])
        for step in range(4):
            assert tick(engine, step, {}) == []
        first = tick(engine, 4, {"entropy": 0.2})
        assert fired(first) == [("entropy_collapse", 4)]
        assert first[0].rule.severity == "critical"
        assert dict(first[0].labels)["layer"] == 0
        assert first[0].value == 0.2
        # persists -> no second alert while still bad
        assert tick(engine, 5, {"entropy": 0.2}) == []

    def test_rearms_after_recovery(self):
        engine = AlertEngine([ENTROPY_FLOOR])
        tick(engine, 0, {})
        tick(engine, 1, {"entropy": 0.2})
        resolved = tick(engine, 2, {})               # recovers
        assert [t.state for t in resolved] == ["resolved"]
        raised = tick(engine, 3, {"entropy": 0.2})
        assert fired(raised) == [("entropy_collapse", 3)]
        assert len(fired(engine.transitions)) == 2

    def test_z_drift_warn_without_floor_breach(self):
        engine = AlertEngine([
            ENTROPY_FLOOR,
            ewma("entropy_drift", "routing.entropy", "<=", -4.0, 4)])
        for step, e in enumerate([0.90, 0.91, 0.89, 0.90, 0.91, 0.90]):
            assert tick(engine, step, {"entropy": e}) == []
        raised = tick(engine, 6, {"entropy": 0.7})
        assert fired(raised) == [("entropy_drift", 6)]
        assert raised[0].rule.severity == "warn"
        assert raised[0].value == 0.7 and raised[0].score < -4.0

    def test_layers_tracked_independently(self):
        engine = AlertEngine([ENTROPY_FLOOR])
        raised = tick(engine, 0, {"entropy": 0.2}, {"entropy": 0.2})
        assert [dict(t.labels)["layer"] for t in raised] == [0, 1]
        # layer 0 recovers, layer 1 stays collapsed: one resolve, and
        # the rule is still firing for layer 1's series.
        later = tick(engine, 1, {}, {"entropy": 0.2})
        assert [(t.state, dict(t.labels)["layer"]) for t in later] == [
            ("resolved", 0)]
        assert engine.firing() == ["entropy_collapse"]


class TestImbalanceAndCapacity:
    def test_gini_ceiling(self):
        engine = AlertEngine(default_rules())
        raised = tick(engine, 0, {"gini": 0.95})
        assert fired(raised) == [("gini_ceiling", 0)]
        assert raised[0].rule.severity == "critical"

    def test_drop_rate_threshold(self):
        engine = AlertEngine(default_rules())
        assert tick(engine, 0, {"dropped_fraction": 0.29}) == []
        got = []
        for step in (1, 2, 3):
            got += tick(engine, step, {"dropped_fraction": 0.5})
        # for_ticks=2: first bad tick 1, firing at tick 3
        assert fired(got) == [("drop_rate_high", 3)]
        assert got[0].value == pytest.approx(0.5)

    def test_capacity_overflow(self):
        engine = AlertEngine(default_rules())
        raised = tick(engine, 0, {"needed_capacity_factor": 4.0})
        assert fired(raised) == [("capacity_overflow", 0)]

    def test_zero_token_step_skipped(self):
        engine = AlertEngine(default_rules())
        raised = tick(engine, 0, {
            "entropy": 0.0, "gini": 1.0, "expert_load": (0,) * 8})
        assert raised == [] and engine.transitions == []


class TestDeadExpert:
    def starved(self, expert=3):
        # uniform share 16; expert 3 draws nothing
        load = [18] * 8
        load[expert] = 0
        return {"expert_load": tuple(load)}

    def test_fires_after_window_consecutive_steps(self):
        engine = AlertEngine([dead_expert(window=4)])
        got = []
        for step in range(10):
            got += tick(engine, step, self.starved())
        # step window-1, once, naming the layer and the expert
        assert [(t.tick, dict(t.labels)) for t in got] == [
            (3, {"layer": 0, "expert": 3})]
        assert got[0].rule.severity == "critical" and got[0].value == 0.0

    def test_window_resets_on_recovery(self):
        engine = AlertEngine([dead_expert(window=3)])
        tick(engine, 0, self.starved())
        tick(engine, 1, self.starved())
        tick(engine, 2, {})                  # resets the count
        tick(engine, 3, self.starved())
        tick(engine, 4, self.starved())
        assert engine.transitions == []
        assert fired(tick(engine, 5, self.starved())) == [
            ("dead_expert", 5)]

    def test_realerts_after_recovery(self):
        engine = AlertEngine([dead_expert(window=2)])
        for step in range(2):
            tick(engine, step, self.starved())
        tick(engine, 2, {})
        for step in (3, 4):
            tick(engine, step, self.starved())
        assert fired(engine.transitions) == [("dead_expert", 1),
                                             ("dead_expert", 4)]

    def test_single_expert_layer_skipped(self):
        engine = AlertEngine([dead_expert(window=1)])
        assert tick(engine, 0, {"expert_load": (128,)}) == []


class TestGradSpike:
    RULE = ewma("grad_spike", "train.grad_norm", ">=", 6.0, 4)

    def test_spike_detected_once(self):
        engine = AlertEngine([self.RULE])
        for step in range(8):
            assert tick(engine, step,
                        grad_norm=1.0 + 0.01 * (step % 3)) == []
        assert fired(tick(engine, 8, grad_norm=50.0)) == [
            ("grad_spike", 8)]
        # still elevated -> no repeat
        assert fired(tick(engine, 9, grad_norm=60.0)) == []

    def test_non_finite_grad_ignored(self):
        engine = AlertEngine([self.RULE])
        assert tick(engine, 0, grad_norm=float("nan")) == []
        assert tick(engine, 1, grad_norm=float("inf")) == []
        assert tick(engine, 2) == []
        assert engine.transitions == []
        # none of them entered the EWMA: warm-up still needs 4 samples
        for step in range(3, 7):
            tick(engine, step, grad_norm=1.0)
        assert tick(engine, 7, grad_norm=1e6) == []


class TestAlertPlumbing:
    def test_alert_json_round_trip(self):
        alert = AlertTransition(
            tick=7, rule=dead_expert(window=5), state="firing",
            value=0.0, labels=(("layer", 1), ("expert", 3)))
        obj = json.loads(json.dumps(alert.to_event_data()))
        assert obj["kind"] == obj["alertname"] == "dead_expert"
        assert obj["layer"] == 1 and obj["expert"] == 3
        assert obj["severity"] == "critical"
        assert obj["state"] == "firing" and obj["threshold"] == 0.1
        assert "[firing]" in obj["message"]
        assert (alert.rule.name, alert.tick, dict(alert.labels)) == \
            ("dead_expert", 7, {"layer": 1, "expert": 3})

    def test_alerts_land_in_run_stream(self, tmp_path):
        with recording_run(root=tmp_path, run_id="r", created_at=1.0):
            with LoopTelemetry("train", default_rules={}) as tel:
                tel.event("routing", {"layer": 0, "gini": 0.95,
                                      "expert_load": [9, 1]}, 5)
                tel.tick(5, "step", {"loss": 1.0})
        assert [(a.rule.name, a.tick) for a in tel.fired] == [
            ("gini_ceiling", 5)]
        events = RunStore(tmp_path).events("r")
        alerts = [e for e in events if e["kind"] == "alert"]
        assert len(alerts) == 1
        assert alerts[0]["step"] == 5
        assert alerts[0]["data"]["kind"] == "gini_ceiling"
        assert alerts[0]["data"]["layer"] == 0

    def test_failed_entry_leaves_no_run(self, tmp_path, monkeypatch):
        # A rule pack that cannot be built raises inside __enter__; the
        # auto-run REPRO_RUNS_DIR asks for must not stay installed as
        # "running" for the next loop of the process to write into.
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        with pytest.raises(TypeError, match="bogus"):
            with LoopTelemetry("train", default_rules={"bogus": 1}):
                pass
        assert get_run() is None
        assert RunStore(tmp_path).manifests() == []

    def test_determinism_same_sequence_same_alerts(self):
        rng = np.random.default_rng(3)
        seq = []
        for step in range(30):
            e = 0.9 + 0.01 * rng.standard_normal()
            if step >= 20:
                e = 0.2
            seq.append({"entropy": e})
        runs = []
        for _ in range(2):
            engine = AlertEngine([
                ENTROPY_FLOOR,
                ewma("entropy_drift", "routing.entropy", "<=", -4.0, 4)])
            for step, payload in enumerate(seq):
                tick(engine, step, payload)
            runs.append([(t.rule.name, t.tick, t.state)
                         for t in engine.transitions])
        assert runs[0] == runs[1]
        assert ("entropy_collapse", 20, "firing") in runs[0]
        assert ("entropy_drift", 20, "firing") in runs[0]
