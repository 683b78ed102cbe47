"""Tests for the zero-dependency HTML dashboard (repro.obs.dashboard)."""

from html.parser import HTMLParser

import pytest

from repro.obs.dashboard import (
    build_series,
    render_dashboard,
    write_dashboard,
)
from repro.obs.runs import RunStore, RunWriter

_VOID_TAGS = {"br", "hr", "img", "input", "meta", "link"}


class WellFormedChecker(HTMLParser):
    """Asserts tags nest properly and close in order (SVG included)."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.stack: list[str] = []
        self.errors: list[str] = []
        self.tag_counts: dict[str, int] = {}

    def handle_starttag(self, tag, attrs):
        self.tag_counts[tag] = self.tag_counts.get(tag, 0) + 1
        if tag not in _VOID_TAGS:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        self.tag_counts[tag] = self.tag_counts.get(tag, 0) + 1

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return
        if not self.stack:
            self.errors.append(f"closing </{tag}> with empty stack")
        elif self.stack[-1] != tag:
            self.errors.append(
                f"closing </{tag}> but open is <{self.stack[-1]}>")
        else:
            self.stack.pop()


def check_well_formed(doc: str) -> WellFormedChecker:
    parser = WellFormedChecker()
    parser.feed(doc)
    parser.close()
    assert parser.errors == [], parser.errors
    assert parser.stack == [], f"unclosed tags: {parser.stack}"
    return parser


def populate_run(root, run_id="r1", created_at=1.0, seed=0,
                 with_alerts=True):
    writer = RunWriter.create(root=root, run_id=run_id, seed=seed,
                              config={"kind": "train"},
                              created_at=created_at)
    writer.emit("train_begin", data={"steps": 6, "start_step": 0,
                                     "seed": seed})
    for step in range(6):
        writer.begin_step(step)
        writer.emit("routing", data={
            "layer": 0, "entropy": 0.9 - 0.1 * step,
            "gini": 0.1 + 0.05 * step, "dropped_fraction": 0.0,
            "needed_capacity_factor": 1.0,
            "expert_load": [16, 20, 12, 16]})
        writer.emit("step", data={"loss": 2.0 - 0.2 * step,
                                  "accuracy": 0.3 + 0.1 * step,
                                  "grad_norm": 1.0})
    if with_alerts:
        writer.emit("fault", step=3, data={"kind": "expert_failure",
                                           "expert": 2})
        writer.emit("alert", step=4, data={
            "kind": "dead_expert", "alertname": "dead_expert",
            "severity": "critical", "state": "firing",
            "value": 0.0, "threshold": 0.1, "layer": 0, "expert": 2,
            "message": "expert 2 starved [firing]"})
        writer.emit("alert", step=5, data={
            "kind": "entropy_drift", "alertname": "entropy_drift",
            "severity": "warn", "state": "firing",
            "value": 0.4, "threshold": -4.0, "layer": 0,
            "message": "entropy drop [firing]"})
    writer.emit("eval", step=-1, data={"accuracy": 0.75})
    writer.finalize(summary={"final_train_loss": 1.0,
                             "eval_accuracy": 0.75})
    return writer


def populate_profiled_run(root, run_id="p1"):
    """A run carrying an op-level profiler summary event."""
    writer = RunWriter.create(root=root, run_id=run_id, seed=0,
                              config={"kind": "profile"},
                              created_at=2.0)
    writer.emit("profile", data={
        "target": "step",
        "totals": {"ops": 68, "flops": 1.27e7, "bytes_read": 3.5e6,
                   "bytes_written": 3.5e6, "wall": 0.012,
                   "arithmetic_intensity": 1.8},
        "peak_bytes": 2_046_384,
        "by_stage": {
            "expert_ffn": {"count": 6, "flops": 8.5e6,
                           "bytes_read": 1.4e6, "bytes_written": 1.4e6,
                           "wall": 0.008},
            "gate": {"count": 14, "flops": 2.2e5, "bytes_read": 1e5,
                     "bytes_written": 1e5, "wall": 0.0006},
            "other": {"count": 44, "flops": 3.9e6, "bytes_read": 1.5e6,
                      "bytes_written": 1.5e6, "wall": 0.003}},
        "by_phase": {},
        "alloc_timeline": [[0, 1024, "forward", "other"],
                           [1, 409600, "forward", "gate"],
                           [2, 2046384, "backward", "expert_ffn"],
                           [3, 8192, "backward", "other"]]})
    writer.finalize(summary={"profile.peak_bytes": 2_046_384.0})
    return writer


class TestBuildSeries:
    def test_folds_stream_into_series(self, tmp_path):
        populate_run(tmp_path)
        series = build_series(RunStore(tmp_path).events("r1"))
        assert series.steps == list(range(6))
        assert series.loss[0] == pytest.approx(2.0)
        assert series.layers == [0]
        assert len(series.entropy[0]) == 6
        assert series.expert_load[0][0] == [16, 20, 12, 16]
        assert [a["kind"] for a in series.alerts] == [
            "dead_expert", "entropy_drift"]
        assert [t["kind"] for t in series.timeline] == ["fault"]
        assert series.timeline[0]["what"] == "expert_failure"
        assert series.evals == [{"accuracy": 0.75}]

    def test_profile_event_last_wins(self):
        series = build_series([
            {"kind": "profile", "step": None,
             "data": {"peak_bytes": 100}},
            {"kind": "profile", "step": None,
             "data": {"peak_bytes": 250,
                      "totals": {"flops": 1e6}}},
        ])
        assert series.profile == {"peak_bytes": 250,
                                  "totals": {"flops": 1e6}}

    def test_negative_step_routing_excluded(self):
        series = build_series([
            {"kind": "routing", "step": -1, "data": {"layer": 0}},
            {"kind": "routing", "step": 2,
             "data": {"layer": 0, "entropy": 0.5}},
        ])
        assert series.routing_steps[0] == [2]

    def test_empty_stream(self):
        series = build_series([])
        assert series.steps == [] and series.layers == []


class TestRenderDashboard:
    def test_well_formed_with_all_panels(self, tmp_path):
        populate_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path), "r1")
        parser = check_well_formed(doc)
        assert doc.lstrip().startswith("<!DOCTYPE html>")
        assert parser.tag_counts.get("svg", 0) >= 3  # loss/entropy/gini
        assert parser.tag_counts.get("rect", 0) >= 24  # 4x6 heatmap
        # no external resources: self-contained single file
        assert "http://" not in doc and "https://" not in doc
        assert "<script src" not in doc and "<link" not in doc

    def test_alert_markers_and_severity_labels(self, tmp_path):
        populate_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path), "latest")
        assert "status-critical" in doc
        assert "dead_expert" in doc and "entropy_drift" in doc
        # status is never color-alone: glyph+word labels present
        assert "critical" in doc and "warning" in doc

    def test_alert_tile_counts_firing_not_resolves(self, tmp_path):
        writer = RunWriter.create(root=tmp_path, run_id="a1",
                                  created_at=1.0)
        alert = {"kind": "hot", "alertname": "hot", "severity": "warn",
                 "value": 2.0, "threshold": 1.0, "layer": 0}
        writer.emit("alert", step=3, data={
            **alert, "state": "firing", "message": "m [firing]"})
        writer.emit("alert", step=5, data={
            **alert, "state": "resolved", "message": "m [resolved]"})
        writer.finalize()
        store = RunStore(tmp_path)
        series = build_series(store.events("a1"))
        # the payload carries no step of its own: the event's is used
        assert [a["step"] for a in series.alerts] == [3, 5]
        doc = render_dashboard(store, "a1")
        assert ('<div class="label">alerts</div>'
                '<div class="value">1</div>') in doc
        assert "[firing]" in doc and "[resolved]" in doc   # the table

    def test_profile_panels_render_self_contained(self, tmp_path):
        populate_profiled_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path), "p1")
        parser = check_well_formed(doc)
        assert "live tensor bytes" in doc     # allocation timeline
        assert "FLOP share by MoE stage" in doc
        assert "peak memory" in doc           # memory tile
        assert "2.0 MiB" in doc               # human-readable bytes
        assert "expert_ffn" in doc and "gate" in doc
        # share bars + timeline each contribute an svg
        assert parser.tag_counts.get("svg", 0) >= 2
        assert "http://" not in doc and "https://" not in doc

    def test_profile_share_bars_carry_percentages(self, tmp_path):
        populate_profiled_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path), "p1")
        # the dominant stage's share is printed as text, not only ink:
        # 8.5e6 of 12.61e6 total flops ~= 67.4%
        assert "67.4%" in doc

    def test_run_without_profile_omits_panels(self, tmp_path):
        populate_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path), "r1")
        assert "FLOP share by MoE stage" not in doc
        assert "live tensor bytes" not in doc

    def test_header_carries_manifest_fields(self, tmp_path):
        populate_run(tmp_path, seed=42)
        doc = render_dashboard(RunStore(tmp_path))
        assert "r1" in doc and "42" in doc

    def test_dark_mode_and_custom_properties(self, tmp_path):
        populate_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path))
        assert "prefers-color-scheme: dark" in doc
        assert "--series-1" in doc

    def test_empty_run_renders(self, tmp_path):
        writer = RunWriter.create(root=tmp_path, run_id="empty",
                                  created_at=1.0)
        writer.finalize()
        doc = render_dashboard(RunStore(tmp_path), "empty")
        check_well_formed(doc)
        assert "no training steps recorded" in doc
        assert "no health alerts raised" in doc

    def test_html_escaping_of_untrusted_fields(self, tmp_path):
        writer = RunWriter.create(
            root=tmp_path, run_id="esc", created_at=1.0,
            config={"note": "<script>alert(1)</script>"})
        writer.emit("alert", step=0, data={
            "kind": "entropy_drift", "step": 0, "severity": "warn",
            "value": 0.1, "threshold": 0.5, "layer": 0,
            "expert": None, "message": "<img src=x onerror=y>"})
        writer.finalize()
        doc = render_dashboard(RunStore(tmp_path), "esc")
        check_well_formed(doc)
        assert "<script>alert(1)</script>" not in doc
        assert "<img src=x" not in doc

    def test_unknown_run_raises(self, tmp_path):
        populate_run(tmp_path)
        with pytest.raises(KeyError):
            render_dashboard(RunStore(tmp_path), "nope")

    def test_refresh_embeds_meta_tag(self, tmp_path):
        populate_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path), "r1", refresh=5)
        check_well_formed(doc)
        assert '<meta http-equiv="refresh" content="5">' in doc
        plain = render_dashboard(RunStore(tmp_path), "r1")
        assert 'http-equiv="refresh"' not in plain

    def test_single_point_series_renders_a_dot(self, tmp_path):
        # A run with exactly one step: the line charts have one data
        # point, which a polyline cannot show — a dot must appear.
        writer = RunWriter.create(root=tmp_path, run_id="one",
                                  created_at=1.0, seed=0)
        writer.begin_step(0)
        writer.emit("step", data={"loss": 1.5, "accuracy": 0.5,
                                  "grad_norm": 1.0})
        writer.finalize(summary={})
        doc = render_dashboard(RunStore(tmp_path), "one")
        check_well_formed(doc)
        assert 'r="3" fill="var(--series-1)"' in doc


def populate_scenario_run(root, run_id="s1", all_pass=False):
    """A run shaped like the scenario engine's output stream."""
    writer = RunWriter.create(root=root, run_id=run_id, seed=11,
                              config={"kind": "scenario",
                                      "name": "rank_loss_deadline"},
                              created_at=3.0)
    writer.emit("scenario", step=0, data={
        "kind": "begin", "name": "rank_loss_deadline", "seed": 11})
    for step in range(4):
        writer.begin_step(step)
        writer.emit("step", data={"loss": 2.0 - 0.1 * step,
                                  "accuracy": 0.4, "grad_norm": 1.0})
    writer.emit("fault", step=2, data={"kind": "rank_failure",
                                       "ranks": [3]})
    writer.emit("recovery", step=2, data={
        "kind": "strategy_reselection", "strategy": "ep",
        "a2a": "linear", "world": 8, "slowdown": 1.2})
    writer.emit("scenario", step=3, data={
        "kind": "elastic_resize", "old_world": 16, "new_world": 32})
    writer.emit("slo_check", step=-1, data={
        "name": "recovery_deadline_0", "value": 0.02, "bound": 20.0,
        "op": "<=", "measured": True, "passed": True})
    writer.emit("slo_check", step=-1, data={
        "name": "final_loss_max", "value": 3.5, "bound": 3.0,
        "op": "<=", "measured": False,
        "passed": all_pass})
    writer.finalize(summary={"scenario": "rank_loss_deadline",
                             "passed": all_pass})
    return writer


class TestScenarioPanels:
    def test_slo_checks_folded_into_series(self, tmp_path):
        populate_scenario_run(tmp_path)
        series = build_series(RunStore(tmp_path).events("s1"))
        assert [c["name"] for c in series.slo_checks] == [
            "recovery_deadline_0", "final_loss_max"]
        # "scenario" events join the fault/recovery timeline
        # (including the step-0 begin marker).
        kinds = [t["kind"] for t in series.timeline]
        assert kinds == ["scenario", "fault", "recovery", "scenario"]
        assert series.timeline[0]["what"] == "begin"
        assert series.timeline[-1]["what"] == "elastic_resize"

    def test_slo_table_renders_verdicts(self, tmp_path):
        populate_scenario_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path), "s1")
        check_well_formed(doc)
        assert "scenario SLO report" in doc
        assert "recovery_deadline_0" in doc
        assert "final_loss_max" in doc
        # one passing wall-clock check, one failing model check
        assert "wall-clock" in doc
        assert "pass" in doc and "fail" in doc
        # the tile summarizes the verdict count
        assert "SLO checks" in doc and "1/2" in doc
        assert "1 failed" in doc

    def test_all_pass_tile(self, tmp_path):
        populate_scenario_run(tmp_path, run_id="s2", all_pass=True)
        doc = render_dashboard(RunStore(tmp_path), "s2")
        assert "2/2" in doc and "all pass" in doc

    def test_run_without_slo_checks_omits_panel(self, tmp_path):
        populate_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path), "r1")
        assert "scenario SLO report" not in doc
        assert "SLO checks" not in doc


class TestWriteDashboard:
    def test_writes_file(self, tmp_path):
        populate_run(tmp_path / "runs")
        out = write_dashboard(RunStore(tmp_path / "runs"), "latest",
                              tmp_path / "out" / "dash.html")
        assert out.is_file()
        check_well_formed(out.read_text())

    def test_threads_refresh_through(self, tmp_path):
        populate_run(tmp_path / "runs")
        out = write_dashboard(RunStore(tmp_path / "runs"), "latest",
                              tmp_path / "out" / "dash.html",
                              refresh=30)
        assert ('<meta http-equiv="refresh" content="30">'
                in out.read_text())


def populate_serving_run(root, run_id="s1"):
    """A run carrying the serving engine's event stream."""
    writer = RunWriter.create(root=root, run_id=run_id, seed=0,
                              config={"kind": "serve",
                                      "workload": "poisson_steady"},
                              created_at=3.0)
    writer.emit("serve", step=0, data={
        "kind": "begin", "workload": "poisson_steady", "seed": 0,
        "fast": True, "requests": 12, "horizon_s": 1.0})
    for i in range(4):
        writer.emit("serve_batch", step=i, data={
            "batch": i, "close_ms": 10.0 * (i + 1), "size": 3,
            "tokens": 48, "queue_depth": i,
            "service_model_ms": 12.0, "service_measured_ms": 1.0,
            "model_walls_ns": {"gate": 1, "dispatch": 2, "expert": 3,
                               "combine": 4},
            "p50_ms": 15.0 + i, "p95_ms": 25.0 + i,
            "p99_ms": 30.0 + i, "brownout": i == 2})
    writer.emit("serving_load", step=None, data={
        "workload": "poisson_steady",
        "loads": [[4, 8, 2, 2], [3, 3, 5, 5]], "gini": 0.25,
        "dropped_fraction": 0.0,
        "span_totals_ns": {"queue": 100, "batch_wait": 300,
                           "gate": 50, "dispatch": 90, "expert": 400,
                           "combine": 60}})
    writer.emit("slo_check", step=-1, data={
        "name": "poisson_steady.model_p99_ms", "value": 33.0,
        "bound": 80.0, "op": "<=", "measured": False, "passed": True})
    writer.finalize(summary={"serve.workload": "poisson_steady",
                             "serve.requests": 12,
                             "serve.model_p99_ms": 33.0,
                             "serve.slo_pass": True})
    return writer


class TestServingPanels:
    def test_serving_events_folded_into_series(self, tmp_path):
        populate_serving_run(tmp_path)
        series = build_series(RunStore(tmp_path).events("s1"))
        assert series.serve_begin["workload"] == "poisson_steady"
        assert len(series.serve_batches) == 4
        assert series.serve_batches[-1]["p99_ms"] == 33.0
        assert series.serving_load["gini"] == 0.25
        assert series.slo_checks[0]["passed"] is True

    def test_serving_panels_render(self, tmp_path):
        populate_serving_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path), "s1")
        check_well_formed(doc)
        # Latency percentile sparklines, queue-depth timeline, and
        # per-stage share bars, plus the summary tiles.
        for needle in ("rolling model p50 latency",
                       "rolling model p95 latency",
                       "rolling model p99 latency",
                       "queue depth at batch close",
                       "latency share by stage",
                       "requests served", "model p99",
                       "max queue depth"):
            assert needle in doc, needle
        # All six ledger stages appear in the share bars.
        for stage in ("queue", "batch_wait", "gate", "dispatch",
                      "expert", "combine"):
            assert stage in doc, stage
        # The brownout transition is flagged on the sparkline.
        assert "brownout begins" in doc

    def test_run_without_serving_omits_panels(self, tmp_path):
        populate_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path), "r1")
        assert "rolling model p99" not in doc
        assert "requests served" not in doc

    def test_real_serving_run_renders_end_to_end(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        from repro.serve.engine import serve_workload
        from repro.serve.workloads import get_workload
        res = serve_workload(get_workload("poisson_steady"),
                             fast=True, seed=0)
        assert res.run_id is not None
        doc = render_dashboard(RunStore(tmp_path), res.run_id)
        check_well_formed(doc)
        assert "latency share by stage" in doc


def populate_routing_run(root, run_id="rt1", *, zero_affinity=False,
                         empty_loads=False, steps=4):
    """A run carrying routing-provenance events (running totals, as
    the recorder emits them), with switches for the degenerate shapes
    the panels must survive."""
    writer = RunWriter.create(root=root, run_id=run_id, seed=0,
                              config={"kind": "train"}, created_at=3.0)
    num_experts, num_layers, buckets = 4, 2, 16
    for step in range(steps):
        writer.begin_step(step)
        scale = 0 if empty_loads else step + 1
        loads = [[scale * (e + 1) for e in range(num_experts)]
                 for _ in range(num_layers)]
        dispatched = [[[scale if b < 4 else 0
                        for _ in range(num_experts)]
                       for b in range(buckets)]
                      for _ in range(num_layers)]
        transitions = [[[0 if zero_affinity else scale
                         for _ in range(num_experts)]
                        for _ in range(num_experts)]]
        writer.emit("routing", data={
            "layer": 0, "entropy": 0.9, "gini": 0.1,
            "dropped_fraction": 0.0, "needed_capacity_factor": 1.0,
            "expert_load": [] if empty_loads
            else [8] * num_experts})
        writer.emit("step", data={"loss": 1.0, "accuracy": 0.5,
                                  "grad_norm": 1.0})
        writer.emit("routing_load", step=step, data={
            "schema": 1, "num_layers": num_layers,
            "num_experts": num_experts, "src_buckets": buckets,
            "batches": step + 1, "tokens": 32 * (step + 1),
            "loads": loads, "dispatched": dispatched})
        writer.emit("routing_affinity", step=step, data={
            "schema": 1, "num_layers": num_layers,
            "num_experts": num_experts, "batches": step + 1,
            "tokens": 32 * (step + 1), "transitions": transitions})
    writer.finalize(summary={"final_train_loss": 1.0})
    return writer


class TestRoutingPanels:
    def test_routing_events_folded_into_series(self, tmp_path):
        populate_routing_run(tmp_path)
        series = build_series(RunStore(tmp_path).events("rt1"))
        # Running totals: the last payload wins.
        assert series.routing_load["batches"] == 4
        assert series.routing_affinity["tokens"] == 128

    def test_affinity_heatmap_and_hop_breakdown_render(self, tmp_path):
        populate_routing_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path), "rt1")
        check_well_formed(doc)
        assert "inter-layer expert affinity" in doc
        assert "token-hop locality" in doc
        assert "intra-GPU" in doc and "inter-node" in doc
        assert "dispatched slots" in doc

    def test_all_zero_affinity_matrix_renders(self, tmp_path):
        populate_routing_run(tmp_path, zero_affinity=True)
        doc = render_dashboard(RunStore(tmp_path), "rt1")
        check_well_formed(doc)
        assert "inter-layer expert affinity" in doc

    def test_empty_expert_load_rows_render(self, tmp_path):
        populate_routing_run(tmp_path, empty_loads=True)
        doc = render_dashboard(RunStore(tmp_path), "rt1")
        check_well_formed(doc)
        assert "no expert-load records" in doc

    def test_single_step_run_renders(self, tmp_path):
        populate_routing_run(tmp_path, steps=1)
        doc = render_dashboard(RunStore(tmp_path), "rt1")
        check_well_formed(doc)
        assert "inter-layer expert affinity" in doc

    def test_run_without_routing_omits_panels(self, tmp_path):
        populate_run(tmp_path)
        doc = render_dashboard(RunStore(tmp_path), "r1")
        assert "inter-layer expert affinity" not in doc
        assert "token-hop locality" not in doc

    def test_real_training_run_renders_routing_panels(self, tmp_path):
        import numpy as np

        from repro.nn.models import MoEClassifier
        from repro.obs.runs import recording_run
        from repro.train.data import ClusteredTokenTask
        from repro.train.trainer import train_model

        task = ClusteredTokenTask(num_clusters=8, input_dim=8,
                                  num_classes=4, noise=0.4, seed=0)
        # num_blocks=4 → two MoE layers (odd blocks), so the run has
        # an inter-layer transition pair to draw.
        model = MoEClassifier(input_dim=8, model_dim=32,
                              hidden_dim=64, num_classes=4,
                              num_blocks=4, num_experts=8,
                              rng=np.random.default_rng(0), top_k=2,
                              capacity_factor=1.25)
        with recording_run(root=tmp_path, run_id="real",
                           config={"kind": "train"}, seed=0):
            train_model(model, task.sample(256), task.sample(64),
                        steps=2, batch_size=64)
        doc = render_dashboard(RunStore(tmp_path), "real")
        check_well_formed(doc)
        assert "inter-layer expert affinity" in doc
        assert "token-hop locality" in doc
