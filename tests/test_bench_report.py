"""Tests for repro.bench.report: BENCH_*.json records and regression."""

import json

import pytest

from repro.bench.report import (
    BenchResult,
    Metric,
    compare,
    emit,
    emit_named,
    has_failures,
    load_results,
    render_comparisons,
    render_report,
    validate_payload,
    write_baselines,
)
from repro.cli import main
from repro.obs.runs import config_fingerprint


def make_result(artifact="fig99", value=10.0, *, scale="default",
                config=None, higher_is_better=True, tolerance=0.05,
                kind="model", metric_name="speedup"):
    return BenchResult(
        artifact=artifact,
        title=f"{artifact} title",
        metrics=[Metric(metric_name, value, "x",
                        kind=kind, higher_is_better=higher_is_better,
                        tolerance=tolerance)],
        scale=scale,
        config=dict(config or {"n": 1}),
    )


class TestMetric:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Metric("", 1.0, "x")
        with pytest.raises(ValueError):
            Metric("m", float("nan"), "x")
        with pytest.raises(ValueError):
            Metric("m", True, "x")
        with pytest.raises(ValueError):
            Metric("m", 1.0, "x", kind="guessed")
        with pytest.raises(ValueError):
            Metric("m", 1.0, "x", tolerance=-0.1)

    def test_json_roundtrip(self):
        m = Metric("gain", 1.5, "ratio", kind="measured",
                   higher_is_better=False, tolerance=0.2)
        assert Metric.from_json_obj(m.to_json_obj()) == m


class TestBenchResult:
    def test_fingerprint_is_stable_and_order_insensitive(self):
        assert config_fingerprint({"a": 1, "b": 2}) == \
            config_fingerprint({"b": 2, "a": 1})
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})
        assert len(config_fingerprint({})) == 12

    def test_write_load_roundtrip(self, tmp_path):
        r = make_result(config={"world": 64, "factor": 4.0})
        path = r.write(tmp_path)
        assert path.name == "BENCH_fig99.json"
        loaded = BenchResult.load(path)
        assert loaded.artifact == r.artifact
        assert loaded.fingerprint == r.fingerprint
        assert loaded.metric("speedup").value == 10.0

    def test_validate_payload_catches_errors(self, tmp_path):
        good = make_result().to_json_obj()
        assert validate_payload(good) == []
        bad = dict(good, artifact="Not Valid!")
        assert validate_payload(bad)
        bad = dict(good, metrics=[])
        assert validate_payload(bad)
        dup = make_result().to_json_obj()
        dup["metrics"] = dup["metrics"] * 2
        assert any("duplicate" in e for e in validate_payload(dup))
        tampered = dict(good, fingerprint="0" * 12)
        assert any("fingerprint" in e for e in validate_payload(tampered))

    def test_from_json_obj_rejects_invalid(self):
        with pytest.raises(ValueError):
            BenchResult.from_json_obj({"schema": 99})


class TestEmit:
    def test_emit_writes_only_when_directed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        emit("fig99", "t", [Metric("m", 1.0, "x")])
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        emit("fig99", "t", [Metric("m", 1.0, "x")])
        assert (tmp_path / "BENCH_fig99.json").exists()

    def test_emit_respects_scale_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        emit("fig98", "t", [Metric("m", 1.0, "x")])
        loaded = BenchResult.load(tmp_path / "BENCH_fig98.json")
        assert loaded.scale == "smoke"

    def test_emit_always_validates(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        with pytest.raises(ValueError):
            emit("Not Valid!", "t", [Metric("m", 1.0, "x")])

    def test_emit_named_namespaces_rows_in_name_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        a = Metric("p99", 2.0, "ms", higher_is_better=False, tolerance=0.0)
        b = Metric("wall", 3.0, "s", kind="measured")
        result = emit_named("named", "t", "workload",
                            [("zeta", 7, [a]), ("alpha", 3, [a, b])],
                            fast=True)
        assert [m.name for m in result.metrics] == [
            "alpha.p99", "alpha.wall", "zeta.p99"]
        # Every other Metric field rides along unchanged.
        assert result.metric("zeta.p99") == Metric(
            "zeta.p99", 2.0, "ms", higher_is_better=False, tolerance=0.0)
        assert result.metric("alpha.wall").kind == "measured"
        assert result.config == {"mode": "fast",
                                 "workloads": ["alpha", "zeta"],
                                 "seeds": {"alpha": 3, "zeta": 7}}

    def test_load_results_aggregates(self, tmp_path):
        make_result("fig97").write(tmp_path)
        make_result("fig96").write(tmp_path)
        results = load_results(tmp_path)
        assert set(results) == {"fig96", "fig97"}
        assert "fig96" in render_report(results)


class TestCompare:
    def test_identical_results_pass(self):
        cur = {"fig99": make_result()}
        base = {"fig99": make_result()}
        comps = compare(cur, base)
        assert [c.status for c in comps] == ["ok"]
        assert not has_failures(comps)

    def test_tolerance_edge(self):
        base = {"fig99": make_result(value=10.0, tolerance=0.05)}
        # 4.9% drop: inside tolerance.
        ok = compare({"fig99": make_result(value=9.51, tolerance=0.05)},
                     base)
        assert ok[0].status == "ok"
        # 6% drop: regression on a higher-is-better metric.
        bad = compare({"fig99": make_result(value=9.4, tolerance=0.05)},
                      base)
        assert bad[0].status == "regressed"
        assert has_failures(bad)
        # 6% rise: improvement, not a failure.
        up = compare({"fig99": make_result(value=10.6, tolerance=0.05)},
                     base)
        assert up[0].status == "improved"
        assert not has_failures(up)

    def test_lower_is_better_mirrored(self):
        base = {"fig99": make_result(value=10.0, higher_is_better=False)}
        bad = compare(
            {"fig99": make_result(value=10.6, higher_is_better=False)},
            base)
        assert bad[0].status == "regressed"

    def test_neutral_metric_fails_both_directions(self):
        base = {"fig99": make_result(value=10.0, higher_is_better=None)}
        for v in (10.6, 9.4):
            comps = compare(
                {"fig99": make_result(value=v, higher_is_better=None)},
                base)
            assert comps[0].status == "regressed"

    def test_missing_artifact_and_metric(self):
        base = {"fig99": make_result(), "fig98": make_result("fig98")}
        comps = compare({"fig99": make_result()}, base)
        statuses = {(c.artifact, c.status) for c in comps}
        assert ("fig98", "missing") in statuses
        assert has_failures(comps)
        # Metric renamed -> old one missing, new one "new".
        cur = {"fig99": make_result(metric_name="renamed")}
        comps = compare(cur, {"fig99": make_result()})
        assert {c.status for c in comps} == {"missing", "new"}

    def test_fingerprint_mismatch(self):
        cur = {"fig99": make_result(config={"n": 2})}
        comps = compare(cur, {"fig99": make_result(config={"n": 1})})
        assert comps[0].status == "fingerprint-mismatch"
        assert has_failures(comps)

    def test_scale_mismatch_skips(self):
        cur = {"fig99": make_result(scale="smoke")}
        comps = compare(cur, {"fig99": make_result()})
        assert comps[0].status == "skipped"
        assert not has_failures(comps)

    def test_measured_metrics_ignored(self, tmp_path):
        # Wall-clock rows are neither compared (whichever side carries
        # them: no "skipped", no perpetual "new") nor stored.
        model = Metric("ops", 4.0, "count", tolerance=0.0)
        wall = Metric("wall_ms", 10.0, "ms", kind="measured")
        base = BenchResult("fig99", "t", [model, wall])
        cur = BenchResult("fig99", "t", [
            model, Metric("wall_ms", 1.0, "ms", kind="measured"),
            Metric("other_ms", 2.0, "ms", kind="measured")])
        assert [(c.metric, c.status)
                for c in compare({"fig99": cur}, {"fig99": base})] \
            == [("ops", "ok")]
        only_wall = BenchResult("fig98", "t", [wall])
        paths = write_baselines({"fig99": cur, "fig98": only_wall},
                                tmp_path)
        assert [p.name for p in paths] == ["BENCH_fig99.json"]
        assert [m.name for m in BenchResult.load(paths[0]).metrics] \
            == ["ops"]

    def test_render_comparisons_has_verdict(self):
        comps = compare({"fig99": make_result()},
                        {"fig99": make_result()})
        text = render_comparisons(comps)
        assert "OK" in text
        bad = compare({"fig99": make_result(value=1.0)},
                      {"fig99": make_result(value=10.0)})
        assert "FAIL" in render_comparisons(bad)


class TestCliVerbs:
    def _seed_dirs(self, tmp_path, *, perturb=False):
        bench = tmp_path / "bench"
        baselines = tmp_path / "baselines"
        bench.mkdir()
        make_result(value=10.0).write(bench)
        write_baselines(
            {"fig99": make_result(value=20.0 if perturb else 10.0)},
            baselines)
        return bench, baselines

    def test_report_prints_aggregate(self, tmp_path, capsys):
        bench, _ = self._seed_dirs(tmp_path)
        assert main(["report", "--bench-dir", str(bench)]) == 0
        out = capsys.readouterr().out
        assert "fig99" in out

    def test_regress_passes_on_match(self, tmp_path, capsys):
        bench, baselines = self._seed_dirs(tmp_path)
        code = main(["regress", "--bench-dir", str(bench),
                     "--baselines", str(baselines)])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_regress_fails_on_perturbed_baseline(self, tmp_path, capsys):
        bench, baselines = self._seed_dirs(tmp_path, perturb=True)
        code = main(["regress", "--bench-dir", str(bench),
                     "--baselines", str(baselines)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_report_write_baselines_roundtrips(self, tmp_path):
        bench, _ = self._seed_dirs(tmp_path)
        out = tmp_path / "new-baselines"
        assert main(["report", "--bench-dir", str(bench),
                     "--write-baselines", str(out)]) == 0
        data = json.loads((out / "BENCH_fig99.json").read_text())
        assert validate_payload(data) == []


class TestCommittedBaselines:
    def test_repo_baselines_are_valid(self):
        from pathlib import Path

        from repro.cli import _default_baselines_dir
        directory = Path(_default_baselines_dir())
        assert directory.is_dir()
        results = load_results(directory)
        assert "fig22" in results
        for artifact, result in results.items():
            payload = json.loads(
                (directory / result.filename).read_text())
            assert validate_payload(payload) == [], artifact

    def test_named_run_records_keep_the_committed_fingerprints(
            self, monkeypatch):
        # `repro scenario --all --fast` / `repro serve --all --fast
        # --seed 0` fingerprint the mode, the names and their seeds —
        # nothing a run computes — so the registered entries suffice.
        from repro.cli import _default_baselines_dir
        from repro.scenarios.engine import ScenarioResult
        from repro.scenarios.library import SCENARIOS
        from repro.scenarios.report import emit_scenarios
        from repro.serve.engine import ServeResult
        from repro.serve.report import emit_serving
        from repro.serve.workloads import WORKLOADS
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        one = [Metric("slo_pass", 1.0)]
        records = [
            emit_scenarios([ScenarioResult(sc.resolved(True), True,
                                           metrics=one)
                            for sc in SCENARIOS.values()], fast=True),
            emit_serving([ServeResult(wl.resolved(fast=True, seed=0), True,
                                      metrics=one)
                          for wl in WORKLOADS.values()], fast=True)]
        baselines = load_results(_default_baselines_dir())
        for record in records:
            assert record.fingerprint \
                == baselines[record.artifact].fingerprint

    @pytest.mark.parametrize("name,value", [
        ("speedup_vs_float64", 1.0),
        # The peak the allocation ledger reported before peak memory
        # was measured: it saw op outputs and gradients only.
        ("peak_bytes", 367_240.0)])
    def test_profile_step_banded_rows_can_fail(self, name, value):
        # The two rows of BENCH_profile_step that are not exact: each
        # fails at a value the gate exists to catch.
        from dataclasses import replace

        from repro.cli import _default_baselines_dir
        base = load_results(_default_baselines_dir())["profile_step"]
        current = replace(base, metrics=[
            replace(m, value=value) if m.name == name else m
            for m in base.metrics])
        (bad,) = [c for c in compare({"profile_step": current},
                                     {"profile_step": base}) if c.failed]
        assert (bad.metric, bad.status) == (name, "regressed")
