"""End-to-end acceptance test for the observability stack (ISSUE 4).

Trains a small MoE with an injected expert failure and a forced
routing collapse, and asserts the full chain holds together: the run
directory carries a manifest and event stream, the default alert rule
pack raises ``dead_expert`` and ``entropy_drift`` alerts at
deterministic steps, and ``RunStore.diff`` reports deltas between two
seeded runs.
"""

import json

import numpy as np
import pytest

from repro.nn.models import MoEClassifier
from repro.obs.runs import RunStore, recording_run
from repro.train.data import ClusteredTokenTask
from repro.train.trainer import train_model

FAIL_STEP = 6       # expert 3 of layer 0 dies here
COLLAPSE_STEP = 14  # gate weights zeroed -> all tokens to experts 0..k-1
# The default pack calls an expert starved on six consecutive steps
# dead (``for_ticks=5`` counts the ticks *after* the first bad one).
DEAD_WINDOW = 6
STEPS = 24


@pytest.fixture(scope="module")
def splits():
    task = ClusteredTokenTask(num_clusters=8, input_dim=8,
                              num_classes=4, noise=0.4, seed=0)
    return task.sample(1024), task.sample(512)


def fresh_model(seed=0):
    return MoEClassifier(8, 16, 32, 4, num_blocks=2, num_experts=8,
                         rng=np.random.default_rng(seed), top_k=2)


def chaos_hook(step, model):
    if step == FAIL_STEP:
        model.fail_expert(0, 3)
    if step == COLLAPSE_STEP:
        # Zero gate weights -> uniform logits -> stable argsort routes
        # every token to experts 0..k-1: normalized entropy collapses
        # to log(k)/log(E) = 1/3, a 4-sigma drop against its EWMA.
        model.moe_layers()[0].gate.weight.data[:] = 0.0


def run_scenario(root, run_id, seed, splits):
    train, test = splits
    with recording_run(root=root, run_id=run_id, seed=seed,
                       config={"scenario": "chaos-e2e"},
                       created_at=float(seed)) as run:
        result = train_model(
            fresh_model(seed), train, test, steps=STEPS,
            batch_size=64, seed=seed, step_hook=chaos_hook)
    assert result.run_id == run.manifest.run_id
    return result


@pytest.fixture(scope="module")
def scenario(tmp_path_factory, splits):
    root = tmp_path_factory.mktemp("runs")
    result = run_scenario(root, "chaos-a", seed=0, splits=splits)
    return root, result


class TestRunArtifacts:
    def test_run_directory_layout(self, scenario):
        root, _ = scenario
        run_dir = root / "chaos-a"
        assert (run_dir / "manifest.json").is_file()
        assert (run_dir / "events.jsonl").is_file()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["seed"] == 0
        assert manifest["fingerprint"]
        assert manifest["substrate"] == "functional"

    def test_event_stream_covers_the_run(self, scenario):
        root, _ = scenario
        events = RunStore(root).events("chaos-a")
        kinds = [e["kind"] for e in events]
        assert kinds.count("step") == STEPS
        assert kinds.count("routing") == STEPS      # one MoE layer
        assert kinds.count("fault") == 1
        assert kinds.count("eval") == 1
        fault = next(e for e in events if e["kind"] == "fault")
        assert fault["data"] == {"kind": "expert_failure", "expert": 3,
                                 "layer": 0}
        assert fault["step"] == FAIL_STEP


class TestHealthAlerts:
    def test_dead_expert_at_the_right_step(self, scenario):
        _, result = scenario
        dead = [a for a in result.health_alerts
                if a.rule.name == "dead_expert"]
        assert dead, "expert failure never detected"
        assert dead[0].tick == FAIL_STEP + DEAD_WINDOW - 1
        assert dict(dead[0].labels) == {"layer": 0, "expert": 3}
        assert dead[0].rule.severity == "critical"

    def test_entropy_collapse_is_flagged(self, scenario):
        _, result = scenario
        collapse = [a for a in result.health_alerts
                    if a.rule.name == "entropy_drift"]
        assert collapse and collapse[0].tick == COLLAPSE_STEP
        # log(2)/log(8): both top-k slots pile onto experts 0..1
        assert collapse[0].value == pytest.approx(1 / 3, abs=1e-6)

    def test_alerts_mirrored_into_event_stream(self, scenario):
        root, result = scenario
        events = RunStore(root).events("chaos-a")
        # One alert stream: every firing transition the trainer
        # reports is one "alert" event, and the manifest counts them.
        streamed = [(e["data"]["kind"], e["step"],
                     e["data"].get("layer"), e["data"].get("expert"))
                    for e in events if e["kind"] == "alert"
                    and e["data"]["state"] == "firing"]
        assert streamed == [(a.rule.name, a.tick,
                             dict(a.labels).get("layer"),
                             dict(a.labels).get("expert"))
                            for a in result.health_alerts]
        manifest = RunStore(root).manifest("chaos-a")
        assert manifest.summary["alerts"] == len(streamed)

    def test_deterministic_under_fixed_seed(self, tmp_path, splits,
                                            scenario):
        _, first = scenario
        repeat = run_scenario(tmp_path, "chaos-b", seed=0,
                              splits=splits)
        assert [(a.rule.name, a.tick, a.labels)
                for a in repeat.health_alerts] == \
               [(a.rule.name, a.tick, a.labels)
                for a in first.health_alerts]


class TestDiff:
    def test_diff_between_two_seeds(self, scenario, splits):
        root, _ = scenario
        run_scenario(root, "chaos-c", seed=1, splits=splits)
        deltas = RunStore(root).diff("chaos-a", "chaos-c")
        names = {d.name for d in deltas}
        assert "summary.final_train_loss" in names
        assert any(d.delta not in (None, 0.0) for d in deltas)
