"""Tests for the persistent run registry (repro.obs.runs)."""

import json

import numpy as np
import pytest

from repro.nn.models import MoEClassifier
from repro.obs import get_run, set_run
from repro.obs.runs import (
    DEFAULT_RUNS_DIR,
    RunManifest,
    RunStore,
    RunWriter,
    env_runs_root,
    recording_run,
    runs_root,
)
from repro.train.data import ClusteredTokenTask
from repro.train.trainer import train_model


@pytest.fixture(autouse=True)
def _no_leaked_run():
    assert get_run() is None
    yield
    set_run(None)


def make_run(root, run_id, created_at, seed=0, summary=None,
             events=()):
    writer = RunWriter.create(root=root, run_id=run_id, seed=seed,
                              config={"id": run_id},
                              created_at=created_at)
    for kind, step, data in events:
        writer.emit(kind, step=step, data=data)
    writer.update_summary(summary or {})
    writer.finalize()
    return writer


class TestRunWriter:
    def test_create_writes_manifest_and_events(self, tmp_path):
        writer = RunWriter.create(root=tmp_path, run_id="r1", seed=7,
                                  config={"a": 1}, created_at=100.0)
        assert (tmp_path / "r1" / "manifest.json").is_file()
        assert (tmp_path / "r1" / "events.jsonl").is_file()
        manifest = json.loads(
            (tmp_path / "r1" / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["status"] == "running"
        assert manifest["created_at"] == 100.0
        writer.close()

    def test_generated_id_collision_suffix(self, tmp_path):
        a = RunWriter.create(root=tmp_path, created_at=50.0,
                             config={"x": 1})
        b = RunWriter.create(root=tmp_path, created_at=50.0,
                             config={"x": 1})
        assert a.manifest.run_id != b.manifest.run_id
        assert b.manifest.run_id.startswith(a.manifest.run_id)
        a.close(), b.close()

    def test_emit_appends_sequenced_lines(self, tmp_path):
        writer = RunWriter.create(root=tmp_path, run_id="r1",
                                  created_at=1.0)
        writer.begin_step(3)
        writer.emit("routing", data={"layer": 0})
        writer.emit("step", step=4, data={"loss": 0.5})
        writer.close()
        lines = [json.loads(line) for line in
                 (tmp_path / "r1" / "events.jsonl")
                 .read_text().splitlines()]
        assert [e["seq"] for e in lines] == [0, 1]
        assert lines[0]["step"] == 3          # from begin_step
        assert lines[1]["step"] == 4          # explicit override
        assert all(e["schema"] == 1 for e in lines)

    def test_finalize_marks_complete_and_writes_metrics(self, tmp_path):
        writer = RunWriter.create(root=tmp_path, run_id="r1",
                                  created_at=1.0)
        writer.emit("step", step=0, data={})
        writer.update_summary({"loss": 0.1})
        writer.finalize(registry_snapshot={"counters": {"n": 2.0}})
        store = RunStore(tmp_path)
        assert store.manifest("r1").status == "complete"
        assert store.manifest("r1").summary == {"loss": 0.1}
        assert store.metrics("r1") == {"counters": {"n": 2.0}}

    def test_manifest_schema_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="schema"):
            RunManifest.from_json_obj({"schema": 99, "run_id": "x",
                                       "created_at": 0.0})

    def test_recording_run_installs_and_finalizes(self, tmp_path):
        with recording_run(root=tmp_path, run_id="ctx",
                           created_at=5.0) as run:
            assert get_run() is run
            run.emit("step", step=0, data={})
        assert get_run() is None
        assert RunStore(tmp_path).manifest("ctx").status == "complete"


class TestCrashedRunsGetOneTerminalStatus:
    """A run whose loop raised is ``failed`` — never left ``running``,
    never finalized ``complete``."""

    def test_recording_run_marks_failed_on_exception(self, tmp_path):
        with pytest.raises(KeyError):
            with recording_run(root=tmp_path, run_id="boom",
                               created_at=1.0):
                raise KeyError("x")
        assert get_run() is None
        manifest = RunStore(tmp_path).manifest("boom")
        assert manifest.status == "failed"
        assert manifest.summary["error"] == "KeyError"

    def test_trainer_auto_run_fails_when_step_hook_raises(
            self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        task = ClusteredTokenTask(num_clusters=8, input_dim=8,
                                  num_classes=4, noise=0.4, seed=0)
        model = MoEClassifier(8, 16, 32, 4, num_blocks=2,
                              num_experts=8,
                              rng=np.random.default_rng(0), top_k=2)

        def hook(step, model):
            if step == 3:
                raise RuntimeError("injected")

        with pytest.raises(RuntimeError, match="injected"):
            train_model(model, task.sample(256), task.sample(128),
                        steps=6, batch_size=64, step_hook=hook)
        assert get_run() is None
        store = RunStore(tmp_path)
        manifest = store.manifest(store.latest())
        assert manifest.status == "failed"
        assert manifest.summary == {"error": "RuntimeError"}
        # everything up to the crash is on disk
        steps = [e["step"] for e in store.events(manifest.run_id)
                 if e["kind"] == "step"]
        assert steps == [0, 1, 2]


class TestTornTail:
    """Readers must tolerate a torn final line — a writer killed (or
    racing) mid-``write`` leaves half a JSON record with no newline."""

    def _run_with_tail(self, tmp_path, tail):
        writer = RunWriter.create(root=tmp_path, run_id="r1",
                                  created_at=1.0)
        writer.emit("step", step=0, data={"loss": 2.0})
        writer.emit("step", step=1, data={"loss": 1.0})
        writer.close()
        path = tmp_path / "r1" / "events.jsonl"
        path.write_text(path.read_text() + tail)
        return path

    def test_store_skips_torn_final_line(self, tmp_path):
        self._run_with_tail(tmp_path,
                            '{"schema": 1, "seq": 2, "kind": "st')
        events = RunStore(tmp_path).events("r1")
        assert [e["seq"] for e in events] == [0, 1]

    def test_parse_events_text_skips_torn_tail_only(self):
        from repro.obs.runs import parse_events_text

        good = ('{"schema": 1, "seq": 0, "kind": "step"}\n'
                '{"schema": 1, "seq": 1, "kind": "step"}\n')
        assert len(parse_events_text(good + '{"seq": 2, "ki')) == 2
        # Mid-stream corruption is data loss, not a benign race —
        # it must still raise.
        with pytest.raises(json.JSONDecodeError):
            parse_events_text('!!corrupt!!\n' + good)

    def test_resume_recovers_past_torn_tail(self, tmp_path):
        self._run_with_tail(tmp_path, '{"seq": 2, "kind": "trunc')
        writer = RunWriter.resume(tmp_path / "r1")
        writer.emit("step", step=2, data={"loss": 0.5})
        writer.finalize()
        events = RunStore(tmp_path).events("r1")
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert events[-1]["step"] == 2


class TestResumeCompaction:
    def _seed_run(self, tmp_path):
        writer = RunWriter.create(root=tmp_path, run_id="r1",
                                  created_at=1.0)
        for step in range(6):
            writer.emit("step", step=step, data={"loss": float(step)})
        writer.emit("eval", step=-1, data={"accuracy": 0.5})
        writer.close()
        return tmp_path / "r1"

    def test_resume_drops_replayed_and_eval_events(self, tmp_path):
        directory = self._seed_run(tmp_path)
        writer = RunWriter.resume(directory, from_step=4)
        steps = [e["step"] for e in RunStore(tmp_path).events("r1")]
        assert steps == [0, 1, 2, 3]          # >=4 and -1 compacted
        writer.emit("step", step=4, data={})
        writer.close()
        events = RunStore(tmp_path).events("r1")
        assert [e["step"] for e in events] == [0, 1, 2, 3, 4]
        # seq keeps ascending across the compaction boundary
        assert events[-1]["seq"] == max(e["seq"] for e in events)

    def test_resume_without_from_step_keeps_everything(self, tmp_path):
        directory = self._seed_run(tmp_path)
        writer = RunWriter.resume(directory)
        writer.close()
        assert len(RunStore(tmp_path).events("r1")) == 7

    def test_resume_resets_status_to_running(self, tmp_path):
        directory = self._seed_run(tmp_path)
        store = RunStore(tmp_path)
        RunWriter.resume(directory, from_step=2).close()
        assert store.manifest("r1").status == "running"


class TestCheckpointRestoreResumesRun:
    """Satellite: restore mid-run -> event stream has every step
    exactly once."""

    def test_no_duplicate_or_missing_steps(self, tmp_path):
        task = ClusteredTokenTask(num_clusters=8, input_dim=8,
                                  num_classes=4, noise=0.4, seed=0)
        train, test = task.sample(256), task.sample(128)

        def model():
            return MoEClassifier(8, 16, 32, 4, num_blocks=2,
                                 num_experts=8,
                                 rng=np.random.default_rng(0), top_k=2)

        runs_dir = tmp_path / "runs"
        with recording_run(root=runs_dir, run_id="full",
                           created_at=1.0):
            train_model(model(), train, test, steps=10, batch_size=64,
                        checkpoint_every=4,
                        checkpoint_dir=str(tmp_path / "ck"))
        ckpt = str(tmp_path / "ck" / "ckpt_000004.npz")

        # Interrupted after step 6, restored from the step-4 checkpoint.
        resumed = RunWriter.resume(runs_dir / "full", from_step=4)
        set_run(resumed)
        try:
            train_model(model(), train, test, steps=10, batch_size=64,
                        resume_from=ckpt)
        finally:
            resumed.finalize()
            set_run(None)

        events = RunStore(runs_dir).events("full")
        step_events = [e["step"] for e in events
                       if e["kind"] == "step"]
        assert step_events == list(range(10))
        routing_steps = [e["step"] for e in events
                         if e["kind"] == "routing"]
        assert routing_steps == list(range(10))  # one MoE layer
        assert [e["kind"] for e in events].count("ckpt_restored") == 1
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)


class TestRunStore:
    def _populate(self, tmp_path):
        make_run(tmp_path, "old", 10.0, seed=1,
                 summary={"loss": 1.0, "note": "text"})
        make_run(tmp_path, "mid", 20.0, seed=2,
                 summary={"loss": 0.6})
        make_run(tmp_path, "new", 30.0, seed=3,
                 summary={"loss": 0.4, "acc": 0.9})
        return RunStore(tmp_path)

    def test_listing_sorted_by_created_at(self, tmp_path):
        store = self._populate(tmp_path)
        assert [m.run_id for m in store.manifests()] == ["old", "mid", "new"]
        assert store.latest() == "new"

    def test_missing_root_lists_empty(self, tmp_path):
        store = RunStore(tmp_path / "nope")
        assert [m.run_id for m in store.manifests()] == []
        with pytest.raises(KeyError):
            store.latest()

    def test_resolve_latest_exact_prefix(self, tmp_path):
        store = self._populate(tmp_path)
        assert store.resolve("latest") == "new"
        assert store.resolve("mid") == "mid"
        assert store.resolve("ne") == "new"
        with pytest.raises(KeyError, match="no run"):
            store.resolve("zzz")

    def test_resolve_ambiguous_prefix_raises(self, tmp_path):
        make_run(tmp_path, "run-a1", 1.0)
        make_run(tmp_path, "run-a2", 2.0)
        with pytest.raises(KeyError, match="ambiguous"):
            RunStore(tmp_path).resolve("run-a")

    def test_diff_reports_deltas(self, tmp_path):
        store = self._populate(tmp_path)
        deltas = {d.name: d for d in store.diff("old", "new")}
        loss = deltas["summary.loss"]
        assert loss.a == 1.0 and loss.b == 0.4
        assert loss.delta == pytest.approx(-0.6)
        # one-sided metric: present in b only, delta undefined
        assert deltas["summary.acc"].a is None
        assert deltas["summary.acc"].delta is None
        # non-numeric summary entries are not compared
        assert "summary.note" not in deltas


class TestGc:
    def test_gc_removes_oldest_by_manifest_timestamp(self, tmp_path):
        # Creation *order* disagrees with the manifest timestamps --
        # gc must honor created_at, not directory mtime.
        make_run(tmp_path, "newest", 30.0)
        make_run(tmp_path, "oldest", 10.0)
        make_run(tmp_path, "middle", 20.0)
        store = RunStore(tmp_path)
        removed = store.gc(keep=2)
        assert removed == ["oldest"]
        assert [m.run_id for m in store.manifests()] == ["middle", "newest"]
        assert not (tmp_path / "oldest").exists()

    def test_gc_dry_run_removes_nothing(self, tmp_path):
        make_run(tmp_path, "a", 1.0)
        make_run(tmp_path, "b", 2.0)
        store = RunStore(tmp_path)
        assert store.gc(keep=1, dry_run=True) == ["a"]
        assert [m.run_id for m in store.manifests()] == ["a", "b"]

    def test_gc_keep_zero_and_noop(self, tmp_path):
        make_run(tmp_path, "a", 1.0)
        store = RunStore(tmp_path)
        assert store.gc(keep=5) == []
        assert store.gc(keep=0) == ["a"]
        assert [m.run_id for m in store.manifests()] == []

    def test_gc_negative_keep_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunStore(tmp_path).gc(keep=-1)


class TestRoots:
    def test_runs_root_precedence(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
        assert env_runs_root() is None
        assert str(runs_root()) == DEFAULT_RUNS_DIR
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert runs_root() == tmp_path
        assert str(runs_root("explicit")) == "explicit"

    def test_trainer_auto_opens_run(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        task = ClusteredTokenTask(num_clusters=8, input_dim=8,
                                  num_classes=4, noise=0.4, seed=0)
        model = MoEClassifier(8, 16, 32, 4, num_blocks=2,
                              num_experts=8,
                              rng=np.random.default_rng(0), top_k=2)
        result = train_model(model, task.sample(256), task.sample(128),
                             steps=4, batch_size=64)
        assert get_run() is None              # uninstalled afterwards
        assert result.run_id is not None
        store = RunStore(tmp_path)
        manifest = store.manifest(result.run_id)
        assert manifest.status == "complete"
        assert manifest.summary["eval_accuracy"] == pytest.approx(
            result.eval_accuracy)
        kinds = {e["kind"] for e in store.events(result.run_id)}
        assert {"train_begin", "step", "routing", "eval"} <= kinds


class TestDeterminism:
    def test_same_seed_runs_write_identical_events(self, monkeypatch,
                                                   tmp_path):
        # Train events carry no wall-clock field, so the whole record of
        # a seeded run is a function of the seed: losses, gradient
        # norms and routing counts byte for byte.
        def run(root):
            monkeypatch.setenv("REPRO_RUNS_DIR", str(root))
            task = ClusteredTokenTask(num_clusters=8, input_dim=8,
                                      num_classes=4, noise=0.4, seed=0)
            model = MoEClassifier(8, 16, 32, 4, num_blocks=2,
                                  num_experts=8,
                                  rng=np.random.default_rng(0), top_k=2)
            result = train_model(model, task.sample(256),
                                 task.sample(128), steps=6, batch_size=64,
                                 seed=3)
            return (root / result.run_id / "events.jsonl").read_bytes()

        first, second = run(tmp_path / "a"), run(tmp_path / "b")
        kinds = [json.loads(line)["kind"] for line in first.splitlines()]
        assert {"train_begin", "step", "routing", "eval"} <= set(kinds)
        assert first == second

        # Routing diagnostics computed on first read write the bytes
        # that computing them with the summary does.
        import repro.nn.moe as nn_moe
        lazy = nn_moe.routing_stats

        def eager(crit, gate_probs=None):
            stats = lazy(crit, gate_probs)
            for name in stats.LAZY:
                getattr(stats, name)
            return stats

        monkeypatch.setattr(nn_moe, "routing_stats", eager)
        assert run(tmp_path / "c") == first
