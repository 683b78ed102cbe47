"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import discover_benches, main, run_bench


class TestDiscovery:
    def test_all_paper_artifacts_present(self):
        benches = discover_benches()
        expected = {"fig01", "fig03", "fig05", "fig06", "fig07",
                    "fig10", "fig20", "fig21", "fig22", "fig23",
                    "fig24", "fig25", "tab01", "tab04", "tab05",
                    "tab07", "tab08", "tab09", "tab10", "tab11",
                    "tab12", "tab13"}
        assert expected <= set(benches)

    def test_ablations_distinct(self):
        benches = discover_benches()
        abl = {k for k in benches if k.startswith("abl")}
        assert len(abl) >= 2  # online search + hierarchy

    def test_paths_exist(self):
        for path in discover_benches().values():
            assert path.is_file()


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig20" in out
        assert "bench_fig20_2dh_scaling.py" in out

    def test_list_describes_every_bench(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for path in discover_benches().values():
            (line,) = [ln for ln in lines if path.name in ln]
            assert line.split(path.name, 1)[1].strip(), line

    @pytest.mark.parametrize("argv", [
        ["profile", "--batch", "0"],
        ["route", "--fast", "--gpus", "0"],
        ["route", "--fast", "--gpus-per-node", "0"],
        ["route", "--fast", "--seed", "-1"],
        ["analyze", "fig22", "--world", "0"],
        ["scenario", "compound_faults", "--seed", "-1"],
        ["calibrate", "--seed", "-1"],
    ], ids="_".join)
    def test_out_of_range_argument_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [ln for ln in err.splitlines() if "error:" in ln]
        assert f"argument {argv[-2]}: must be" in line

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tutel" in out
        assert "2048 GPUs" in out

    def test_bench_runs(self, capsys):
        assert main(["bench", "fig06"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6a" in out

    def test_unknown_bench_rejected(self):
        with pytest.raises(SystemExit):
            run_bench("fig99")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestAnalyzeCommand:
    def test_analyze_fig22_prints_attribution(self, capsys):
        assert main(["analyze", "fig22", "--world", "16"]) == 0
        out = capsys.readouterr().out
        assert "Per-stream attribution" in out
        assert "Critical path" in out
        assert "what-if bounds" in out
        assert "overlap efficiency" in out
        assert "faster" in out

    def test_analyze_trace_file_roundtrip(self, tmp_path, capsys):
        trace_in = tmp_path / "in.json"
        trace_out = tmp_path / "out.json"
        # First export a trace from the fig22 path...
        assert main(["analyze", "fig22", "--world", "16",
                     "--trace", str(trace_in)]) == 0
        capsys.readouterr()
        # ...then re-analyze the saved trace from disk.
        assert main(["analyze", str(trace_in),
                     "--trace", str(trace_out)]) == 0
        out = capsys.readouterr().out
        assert "Per-stream attribution" in out
        assert trace_out.is_file()

    def test_analyze_observer_written_trace(self, tmp_path, capsys):
        """An observer trace that mixes wall-clock MoE spans with
        simulator ops re-attributes its simulated segment."""
        import numpy as np

        from repro import obs
        from repro.cluster.simulator import Schedule, simulate
        from repro.nn.models import MoEClassifier
        from repro.train.data import ClusteredTokenTask
        from repro.train.trainer import train_model

        trace = tmp_path / "trace.json"
        ob = obs.enable()
        try:
            task = ClusteredTokenTask(num_clusters=8, input_dim=8,
                                      num_classes=4, noise=0.4, seed=0)
            model = MoEClassifier(8, 16, 32, 4, num_blocks=2,
                                  num_experts=4, top_k=2,
                                  rng=np.random.default_rng(0))
            train_model(model, task.sample(64), task.sample(32),
                        steps=1, batch_size=64)
            sched = Schedule()
            comp = sched.new_op(work=2e-3, stream="compute",
                                kind="compute", label="expert_chunk0")
            sched.new_op(work=1.5e-3, stream="comm", kind="comm",
                         label="a2a_chunk0", deps=(comp,))
            simulate(sched)
            ob.recorder.dump_chrome_trace(trace)
        finally:
            obs.disable()
        names = {e["name"]
                 for e in json.loads(trace.read_text())["traceEvents"]}
        assert {"gate", "dispatch", "expert_ffn", "combine", "step"} <= names
        assert main(["analyze", str(trace)]) == 0
        assert "a2a_chunk0" in capsys.readouterr().out

    def test_analyze_missing_file_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "no-such-trace.json"])


class TestRunsCommand:
    @pytest.fixture()
    def registry(self, tmp_path):
        from repro.obs.runs import RunWriter

        for run_id, stamp, seed, loss in (("alpha", 10.0, 0, 1.5),
                                          ("beta", 20.0, 1, 1.2)):
            w = RunWriter.create(root=tmp_path, run_id=run_id,
                                 seed=seed, config={"kind": "train"},
                                 created_at=stamp)
            w.emit("step", step=0, data={"loss": loss})
            w.emit("alert", step=0, data={
                "kind": "drop_rate", "severity": "warn",
                "message": "too many drops"})
            w.update_summary({"final_train_loss": loss})
            w.finalize()
        return tmp_path

    def test_runs_list(self, registry, capsys):
        assert main(["runs", "list", "--dir", str(registry)]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" in out
        assert "complete" in out

    def test_runs_list_empty(self, tmp_path, capsys):
        assert main(["runs", "list", "--dir",
                     str(tmp_path / "none")]) == 0
        assert "no runs under" in capsys.readouterr().out

    def test_runs_show(self, registry, capsys):
        assert main(["runs", "show", "alpha",
                     "--dir", str(registry)]) == 0
        out = capsys.readouterr().out
        assert '"run_id": "alpha"' in out
        assert "step=1" in out and "alert=1" in out
        assert "drop_rate" in out

    def test_runs_diff(self, registry, capsys):
        assert main(["runs", "diff", "alpha", "beta",
                     "--dir", str(registry)]) == 0
        out = capsys.readouterr().out
        assert "summary.final_train_loss" in out
        assert "-0.3" in out

    def test_runs_diff_changed_only_identical(self, registry, capsys):
        assert main(["runs", "diff", "alpha", "alpha",
                     "--changed-only", "--dir", str(registry)]) == 0
        assert "no differing metrics" in capsys.readouterr().out

    def test_runs_gc_dry_run_then_real(self, registry, capsys):
        assert main(["runs", "gc", "--keep", "1", "--dry-run",
                     "--dir", str(registry)]) == 0
        assert "would remove alpha" in capsys.readouterr().out
        assert (registry / "alpha").is_dir()
        assert main(["runs", "gc", "--keep", "1",
                     "--dir", str(registry)]) == 0
        assert "removed alpha" in capsys.readouterr().out
        assert not (registry / "alpha").exists()

    def test_runs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["runs"])

    def test_unknown_run_exits_cleanly(self, registry):
        with pytest.raises(SystemExit, match="no run matching"):
            main(["runs", "show", "zzz", "--dir", str(registry)])

    def test_runs_gc_rejects_negative_keep(self, registry, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["runs", "gc", "--keep", "-1", "--dir", str(registry)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--keep: must be an integer >= 0" in err
        assert "Traceback" not in err
        assert (registry / "alpha").is_dir()

    def test_bench_records_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["bench", "fig06"]) == 0
        out = capsys.readouterr().out
        assert "[runs] recording run" in out
        from repro.obs.runs import RunStore

        store = RunStore(tmp_path)
        run_id = store.latest()
        assert store.manifest(run_id).status == "complete"
        kinds = {e["kind"] for e in store.events(run_id)}
        assert "bench_table" in kinds


class TestChaosCommand:
    def test_chaos_smoke(self, tmp_path, capsys, monkeypatch):
        """``repro chaos`` is gone; the drill is the registered
        ``compound_faults`` scenario and its fault trace is the run's
        ``fault`` events."""
        from repro import obs as obs_module

        with pytest.raises(SystemExit):
            main(["chaos", "--seed", "0", "--smoke"])
        capsys.readouterr()
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["scenario", "compound_faults", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "scenario compound_faults (seed 0" in out
        assert "sim_clock_fault" in out
        assert "[PASS] skipped_steps: 1 <= 1" in out
        assert main(["runs", "show", "latest", "--events", "fault"]) == 0
        faults = capsys.readouterr().out
        for kind in ("expert_failure", "nonfinite_injection",
                     "sim_clock_fault"):
            assert kind in faults
        assert obs_module.get_observer() is None


class TestProfileCommand:
    def test_profile_writes_artifacts(self, tmp_path, capsys,
                                      monkeypatch):
        from repro import cli

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "bench"))
        # The float32 speedup probe's child is pinned by its own test.
        monkeypatch.setattr(cli, "_one_thread_speedup_probe",
                            lambda: (2.0, 0.2, 0.1))
        trace = tmp_path / "trace.json"
        assert main(["profile", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "== profile ==" in out
        assert "moe_dispatch" in out and "expert_ffn" in out
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("ph") == "C" for e in events)  # counters
        for artifact in ("profile_step", "train_fingerprint"):
            assert (tmp_path / "bench"
                    / f"BENCH_{artifact}.json").exists()
        from repro.obs.runs import RunStore

        store = RunStore(tmp_path / "runs")
        run_id = store.latest()
        assert store.manifest(run_id).summary["profile.peak_bytes"] > 0
        # The run's profile event is the whole Profiler.summary() plus
        # the unprofiled pass's measured peak.
        (event,) = store.iter_events(run_id, kind="profile")
        payload = event["data"]
        assert set(payload) == {
            "target", "schema_version", "totals", "by_op", "by_stage",
            "by_phase", "records_dropped", "peak_bytes"}
        assert payload["target"] == "step"
        assert payload["totals"]["flops"] > 0
        assert payload["peak_bytes"] > 0
        assert "moe_dispatch" in payload["by_op"]

    def test_profile_step_matches_baseline_fingerprint(self, tmp_path,
                                                       monkeypatch,
                                                       capsys):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
        assert main(["profile"]) == 0
        capsys.readouterr()
        from repro.bench.report import BenchResult

        current = BenchResult.load(tmp_path / "BENCH_profile_step.json")
        baseline = BenchResult.load(
            "benchmarks/baselines/BENCH_profile_step.json")
        assert current.fingerprint == baseline.fingerprint

    def test_speedup_probe_child_runs_one_blas_thread(self, monkeypatch):
        # The probe's numbers are host timings; what is pinned is the
        # child's environment: one BLAS thread before NumPy loads, this
        # process's dtype and this checkout's sources.
        import numpy as np

        from repro import cli
        from repro.core.substrate import substrate_dtype

        seen = {}

        def fake_run(cmd, env, **kwargs):
            seen.update(cmd=cmd, env=env)
            return subprocess.CompletedProcess(cmd, 0, "[2.0, 0.2, 0.1]\n",
                                               "")

        monkeypatch.setattr(subprocess, "run", fake_run)
        with substrate_dtype(np.float64):
            assert cli._one_thread_speedup_probe() == (2.0, 0.2, 0.1)
        env = seen["env"]
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
            assert env[name] == "1"
        assert env["REPRO_DTYPE"] == "float64"
        executable, flag, code = seen["cmd"]
        assert (executable, flag) == (sys.executable, "-c")
        src = Path(cli.__file__).resolve().parents[1]
        assert f"sys.path.insert(0, {str(src)!r})" in code
        assert "_dtype_speedup_probe()" in code

    def test_profile_rejects_a_positional_argument(self):
        # The profiled target is always the seed model's train step.
        for extra in ("step", "layer"):
            with pytest.raises(SystemExit) as exc:
                main(["profile", extra])
            assert exc.value.code == 2


class TestCalibrateCommand:
    def test_calibrate_fast_writes_report(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.obs import calibrate

        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "bench"))
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
        real_run_calibration = calibrate.run_calibration
        reports = []

        def run_calibration(**kwargs):
            reports.append(real_run_calibration(**kwargs))
            return reports[-1]

        monkeypatch.setattr(calibrate, "run_calibration", run_calibration)
        assert main(["calibrate", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "sim_vs_measured_p95_err" in out
        assert "Per-class summary" in out
        assert (tmp_path / "bench" / "BENCH_calibration.json").exists()
        from repro.obs.runs import RunStore

        # The run's calibration event is the full report, rows included.
        store = RunStore(tmp_path / "runs")
        (event,) = store.iter_events(store.latest(), kind="calibration")
        assert event["data"] == reports[0].to_json_obj()
        assert event["data"]["profile"] == "fast"


class TestServeCommand:
    def test_serve_list(self, capsys):
        assert main(["serve", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("poisson_steady", "bursty_spike",
                     "diurnal_cycle", "brownout_surge"):
            assert name in out

    def test_serve_requires_target(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_serve_unknown_workload_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["serve", "nope"])

    def test_serve_single_workload_passes(self, capsys):
        assert main(["serve", "poisson_steady", "--fast",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "serving SLO report" in out
        assert "PASS" in out
        # Both latency columns are reported side by side.
        assert "model_p99_ms" in out
        assert "measured_p99_ms" in out

    def test_serve_forced_slo_miss_exits_nonzero(self, capsys,
                                                 monkeypatch):
        from dataclasses import replace

        from repro.serve.workloads import WORKLOADS
        wl = WORKLOADS["poisson_steady"]
        monkeypatch.setitem(WORKLOADS, "poisson_steady",
                            replace(wl, slo=replace(wl.slo, p99_ms=1e-4)))
        assert main(["serve", "poisson_steady", "--fast",
                     "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_serve_all_emits_bench_artifact(self, tmp_path, capsys,
                                            monkeypatch):
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        monkeypatch.setenv("REPRO_BENCH_DIR", str(bench_dir))
        assert main(["serve", "--all", "--fast", "--seed", "0"]) == 0
        payload = json.loads(
            (bench_dir / "BENCH_serving.json").read_text())
        assert payload["artifact"] == "serving"
        assert payload["config"]["mode"] == "fast"
        names = {m["name"] for m in payload["metrics"]}
        for wl in ("poisson_steady", "bursty_spike", "diurnal_cycle",
                   "brownout_surge"):
            for metric in ("model_p50_ms", "model_p95_ms",
                           "model_p99_ms", "goodput_rps", "slo_pass"):
                assert f"{wl}.{metric}" in names
        # Modeled metrics gate exactly; measured ones are exempt.
        by_name = {m["name"]: m for m in payload["metrics"]}
        assert by_name["poisson_steady.model_p99_ms"]["tolerance"] == 0
        assert by_name["poisson_steady.measured_p99_ms"]["kind"] \
            == "measured"

    def test_serve_writes_metrics_and_trace(self, tmp_path, capsys,
                                            monkeypatch):
        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        trace = tmp_path / "serve-trace.json"
        assert main(["serve", "poisson_steady", "--fast",
                     "--seed", "0", "--trace", str(trace)]) == 0
        from repro.obs.runs import RunStore
        store = RunStore(runs)
        metrics = json.loads(
            (store.path(store.latest()) / "metrics.json").read_text())
        assert metrics["counters"]["serve.requests"] > 0
        for stage in ("gate", "dispatch", "expert_ffn", "combine"):
            assert metrics["histograms"][f"serve.{stage}"]["count"] > 0
        payload = json.loads(trace.read_text())
        phases = {e.get("ph") for e in payload["traceEvents"]}
        assert {"X", "s", "f"} <= phases
        tracks = {e["args"]["name"]
                  for e in payload["traceEvents"]
                  if e.get("name") == "thread_name"}
        assert {"serve/requests", "serve/engine"} <= tracks

    def test_runs_show_surfaces_serving_summary(self, tmp_path,
                                                capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["serve", "poisson_steady", "--fast",
                     "--seed", "0"]) == 0
        capsys.readouterr()
        assert main(["runs", "show", "latest",
                     "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "serving summary:" in out
        assert "serve.workload" in out and "poisson_steady" in out
        assert "serve.model_p99_ms" in out
        assert "serve.slo_pass" in out
        # SLO verdict lines ride along.
        assert "[PASS] poisson_steady.model_p99_ms" in out


class TestRouteCommand:
    def test_route_fast_prints_whatif_table(self, capsys):
        assert main(["route", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "synthetic profile (seed 0)" in out
        assert "placement what-if" in out
        assert "round_robin" in out and "contiguous_x2" in out
        assert "self-affinity" in out

    def test_route_fast_emits_bench_artifact(self, tmp_path, capsys,
                                             monkeypatch):
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        monkeypatch.setenv("REPRO_BENCH_DIR", str(bench_dir))
        assert main(["route", "--fast"]) == 0
        payload = json.loads(
            (bench_dir / "BENCH_routing.json").read_text())
        assert payload["artifact"] == "routing"
        assert payload["config"]["mode"] == "fast"
        by_name = {m["name"]: m for m in payload["metrics"]}
        for name in ("tokens", "load_gini", "self_affinity",
                     "round_robin.inter_node_hops",
                     "contiguous_x2.priced_ms"):
            assert name in by_name
            assert by_name[name]["tolerance"] == 0
            assert by_name[name]["kind"] == "model"

    def test_route_fast_is_deterministic(self, tmp_path, capsys,
                                         monkeypatch):
        records = []
        for sub in ("a", "b"):
            bench_dir = tmp_path / sub
            bench_dir.mkdir()
            monkeypatch.setenv("REPRO_BENCH_DIR", str(bench_dir))
            assert main(["route", "--fast"]) == 0
            payload = json.loads(
                (bench_dir / "BENCH_routing.json").read_text())
            records.append([(m["name"], m["value"])
                            for m in payload["metrics"]])
        assert records[0] == records[1]

    def test_route_fast_matches_committed_baseline(self, tmp_path,
                                                   capsys,
                                                   monkeypatch):
        from pathlib import Path

        baseline_path = (Path(__file__).resolve().parent.parent
                         / "benchmarks" / "baselines"
                         / "BENCH_routing.json")
        baseline = json.loads(baseline_path.read_text())
        bench_dir = tmp_path / "bench"
        bench_dir.mkdir()
        monkeypatch.setenv("REPRO_BENCH_DIR", str(bench_dir))
        assert main(["route", "--fast"]) == 0
        payload = json.loads(
            (bench_dir / "BENCH_routing.json").read_text())
        assert payload["fingerprint"] == baseline["fingerprint"]
        current = {m["name"]: m["value"] for m in payload["metrics"]}
        for m in baseline["metrics"]:
            assert current[m["name"]] == m["value"], m["name"]

    def test_route_aggregates_recorded_run(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        assert main(["serve", "poisson_steady", "--fast",
                     "--seed", "0"]) == 0
        capsys.readouterr()
        assert main(["route", "latest", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "aggregated run" in out
        assert "placement what-if" in out

    def test_route_without_runs_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["route", "latest", "--dir",
                  str(tmp_path / "none")])

    def test_route_on_a_run_of_two_models_is_one_line(self, tmp_path):
        # A run that trains two expert counts (repro bench tab11)
        # cannot be one routing profile: one stderr line, no traceback.
        from repro.obs.routing import SRC_BUCKETS
        from repro.obs.runs import RunWriter

        w = RunWriter.create(root=tmp_path, run_id="mix", seed=0,
                             config={"kind": "train"}, created_at=1.0)
        for step, e in enumerate((8, 16)):
            w.emit("routing", step=step, data={
                "layer": 0, "tokens": 4, "expert_load": [0] * e,
                "dispatched": [[0] * e] * SRC_BUCKETS})
        w.finalize()
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "route", "latest", "--dir",
             str(tmp_path)], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode != 0
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("repro route: routing event at step 1")
        assert "(16, 16)" in lines[0] and "(16, 8)" in lines[0]


class TestRunsShowEventsFilter:
    def test_filter_prints_matching_events_as_jsonl(self, tmp_path,
                                                    capsys):
        from repro.obs.runs import RunWriter

        w = RunWriter.create(root=tmp_path, run_id="f1", seed=0,
                             config={"kind": "train"}, created_at=1.0)
        w.emit("step", step=0, data={"loss": 1.0})
        w.emit("routing", step=0,
               data={"layer": 0, "transitions": [[1]]})
        w.emit("routing", step=1,
               data={"layer": 0, "transitions": [[2]]})
        w.finalize()
        assert main(["runs", "show", "f1", "--dir", str(tmp_path),
                     "--events", "routing"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        events = [json.loads(line) for line in out]
        assert all(e["kind"] == "routing" for e in events)
        assert events[1]["data"]["transitions"] == [[2]]
        # The manifest dump is suppressed in filter mode.
        assert not any("run_id" in line for line in out)

    def test_filter_with_no_matches_says_so(self, tmp_path, capsys):
        from repro.obs.runs import RunWriter

        w = RunWriter.create(root=tmp_path, run_id="f2", seed=0,
                             config={"kind": "train"}, created_at=1.0)
        w.emit("step", step=0, data={"loss": 1.0})
        w.finalize()
        assert main(["runs", "show", "f2", "--dir", str(tmp_path),
                     "--events", "serving_load"]) == 0
        assert "no 'serving_load' events" in capsys.readouterr().out


class TestClosedPipe:
    """``repro runs show ... | head``: a reader that goes away early
    stops the command quietly, with the status a shell reports for a
    writer killed by SIGPIPE."""

    @pytest.mark.parametrize("extra", [[], ["--events", "alert"]])
    def test_reader_closing_early_is_quiet(self, tmp_path, extra):
        from repro.obs.runs import RunWriter

        w = RunWriter.create(root=tmp_path, run_id="p1", seed=0,
                             config={"kind": "serve"}, created_at=1.0)
        # Far more output than a pipe buffers, so the writer must
        # block on the reader, and then find it gone.
        for step in range(3000):
            w.emit("alert", step=step, data={
                "kind": "drop_rate", "severity": "warn",
                "message": "too many drops"})
        w.finalize()
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with subprocess.Popen(
                [sys.executable, "-m", "repro", "runs", "show", "latest",
                 "--dir", str(tmp_path), *extra],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""
