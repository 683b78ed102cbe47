"""Tests for the repro.obs instrumentation layer."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    CAT_MOE,
    MOE_STAGES,
    NULL_SPAN,
    Observer,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder


@pytest.fixture(autouse=True)
def clean_observer():
    """Never leak a process-wide observer across tests."""
    obs.set_observer(None)
    yield
    obs.set_observer(None)


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(2.5)
        assert reg.counter("a").value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("a").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.0)
        reg.gauge("g").set(7.0)
        assert reg.gauge("g").value == 7.0
        assert reg.gauge("g").updates == 2

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 3.0, 2.0):
            reg.histogram("h").observe(v)
        h = reg.histogram("h")
        assert h.count == 3
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == pytest.approx(2.0)

    def test_empty_histogram_defined(self):
        h = MetricsRegistry().histogram("h")
        assert h.mean == 0.0
        s = h.summary()
        assert s["min"] == 0.0
        assert s["empty"] is True           # zero observations flagged
        assert s["p50"] == 0.0 and s["p99"] == 0.0
        h.observe(2.0)
        assert h.summary()["empty"] is False

    def test_summary_keys_contract_on_cold_instrument(self):
        # The pinned contract: every SUMMARY_KEYS field is present in
        # key order even with zero observations — notably "count": 0 —
        # so aggregating consumers never guard against missing keys.
        from repro.obs.registry import SUMMARY_KEYS

        cold = MetricsRegistry().histogram("cold").summary()
        assert tuple(cold) == SUMMARY_KEYS
        assert cold["count"] == 0
        assert all(v == v for v in cold.values())  # no NaNs
        json.dumps(cold)

    def test_histogram_quantiles_exact_under_reservoir_size(self):
        from repro.obs.registry import RESERVOIR_SIZE

        reg = MetricsRegistry()
        h = reg.histogram("h")
        values = list(range(101))  # well under RESERVOIR_SIZE
        assert len(values) <= RESERVOIR_SIZE
        for v in values:
            h.observe(float(v))
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.5) == pytest.approx(50.0)
        assert h.quantile(0.95) == pytest.approx(95.0)

    def test_histogram_quantiles_deterministic_when_sampling(self):
        # Past the reservoir size the quantiles are sampled, but the
        # per-instrument seed makes two identical runs agree exactly.
        def fill():
            h = MetricsRegistry().histogram("latency")
            for v in range(10_000):
                h.observe(float(v))
            return h

        a, b = fill(), fill()
        assert a.quantile(0.5) == b.quantile(0.5)
        assert a.quantile(0.99) == b.quantile(0.99)
        # Sampled quantiles stay near the true ones on uniform data.
        assert a.quantile(0.5) == pytest.approx(5_000, rel=0.25)

    def test_histogram_quantile_validates_and_defaults(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.5) == 0.0  # empty histogram
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_summary_includes_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        s = h.summary()
        assert {"p50", "p95", "p99"} <= set(s)
        assert s["p50"] == pytest.approx(2.0)
        snap = reg.snapshot()
        json.dumps(snap)
        assert "p95" in snap["histograms"]["h"]

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(0.5)
        json.dumps(reg.snapshot())


class TestSpans:
    def test_span_records_histogram_and_event(self):
        ob = obs.enable()
        with obs.span("work", "cat"):
            pass
        assert ob.registry.histogram("cat.work").count == 1
        assert len(ob.recorder.events) == 1
        event = ob.recorder.events[0]
        assert event.name == "work"
        assert event.cat == "cat"
        assert event.dur >= 0

    def test_span_without_recorder_still_times(self):
        ob = obs.enable(trace=False)
        with obs.span("work", "cat"):
            pass
        assert ob.registry.histogram("cat.work").count == 1

    def test_record_span_explicit_clock(self):
        ob = Observer(recorder=TraceRecorder())
        ob.record_span("k0", "sim", start=1.0, dur=0.5, track="sim/gpu0")
        event = ob.recorder.events[0]
        assert (event.ts, event.dur, event.track) == (1.0, 0.5, "sim/gpu0")

    def test_instant_marker(self):
        ob = Observer(recorder=TraceRecorder())
        ob.instant("explore", "pipeline", args={"f": 1.5})
        assert ob.registry.counter("pipeline.explore").value == 1
        assert ob.recorder.events[0].phase == "i"

    def test_module_span_disabled_is_null_singleton(self):
        # The zero-cost contract: with no observer installed the span
        # helper returns the shared no-op singleton, so hot call sites
        # pay one is-None check and nothing else.
        assert obs.get_observer() is None
        assert obs.span("anything", CAT_MOE) is NULL_SPAN
        with obs.span("anything", CAT_MOE):
            pass  # no-op context protocol works

    def test_stage_clock_off_is_null_singleton(self):
        # Neither an observer nor a profiler: one check, no object.
        assert obs.get_observer() is None and obs.get_profiler() is None
        assert all(obs.stage(s) is NULL_SPAN for s in MOE_STAGES)

    def test_module_span_enabled_records(self):
        ob = obs.enable()
        with obs.span("x", "c"):
            pass
        assert ob.registry.histogram("c.x").count == 1
        obs.disable()
        assert obs.span("x", "c") is NULL_SPAN

    def test_set_observer_returns_previous(self):
        first = Observer()
        assert obs.set_observer(first) is None
        assert obs.set_observer(None) is first


class TestTraceExport:
    def _recorder_with_events(self):
        rec = TraceRecorder()
        rec.span("gate", "moe", ts=0.0, dur=0.001)
        rec.span("a2a", "collective", ts=0.001, dur=0.002,
                 track="sim/gpu0/comm", args={"world": 8})
        rec.instant("explore", "pipeline", ts=0.002)
        return rec

    def test_chrome_trace_round_trips_json(self):
        rec = self._recorder_with_events()
        parsed = json.loads(rec.dumps_chrome_trace())
        events = parsed["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 2
        for e in spans:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)
        assert any(e["ph"] == "i" for e in events)

    def test_tracks_become_named_threads(self):
        parsed = json.loads(self._recorder_with_events()
                            .dumps_chrome_trace())
        meta = [e for e in parsed["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert names == {"main", "sim/gpu0/comm"}
        tids = {e["tid"] for e in meta}
        assert len(tids) == len(meta)

    def test_timestamps_exported_in_microseconds(self):
        rec = TraceRecorder()
        rec.span("s", "c", ts=0.5, dur=0.25)
        event = [e for e in rec.to_chrome_trace()["traceEvents"]
                 if e["ph"] == "X"][0]
        assert event["ts"] == pytest.approx(0.5e6)
        assert event["dur"] == pytest.approx(0.25e6)

    def test_dump_files(self, tmp_path):
        rec = self._recorder_with_events()
        chrome = tmp_path / "trace.json"
        rec.dump_chrome_trace(str(chrome))
        json.loads(chrome.read_text())
        assert len(TraceRecorder.load_chrome_trace(str(chrome)).events) == 3

    def test_max_events_cap(self):
        rec = TraceRecorder(max_events=2)
        for i in range(5):
            rec.span(f"s{i}", "c", ts=float(i), dur=0.1)
        assert len(rec.events) == 2
        assert rec.dropped == 3


def _same_event(got, want):
    """Equal up to the seconds -> microseconds -> seconds conversion."""
    return ((got.name, got.cat, got.track, got.phase, got.args)
            == (want.name, want.cat, want.track, want.phase, want.args)
            and got.ts == pytest.approx(want.ts, rel=1e-12, abs=1e-15)
            and got.dur == pytest.approx(want.dur, rel=1e-12, abs=1e-15))


class TestJsonlRoundTrip:
    """Write -> parse -> compare for a trace carrying both substrates'
    event types, including the resilience events.  The file is the
    Chrome trace JSON; the class keeps the name it had when a JSONL
    dump existed so its test ids stay stable."""

    def _fault_laden_observer(self):
        ob = obs.enable()
        from repro.cluster.simulator import Schedule, simulate
        from repro.obs import CAT_CKPT, CAT_FAULT, CAT_TRAIN
        from repro.resilience.faults import FaultPlan, OpFailure

        for step in range(3):
            ob.record_span("train_step", CAT_TRAIN, ob.clock(), 0.0,
                           args={"step": step})
            if step == 1:
                ob.instant("step_skipped", CAT_TRAIN,
                           args={"step": step})
                ob.instant("saved", CAT_CKPT,
                           args={"step": step, "path": "x.npz"})
        s = Schedule()
        s.new_op(work=1.0, label="victim")
        simulate(s, faults=FaultPlan(op_failures=[
            OpFailure(time=0.5, gpu=0, timeout=0.1)]))
        assert any(e.cat == CAT_FAULT for e in ob.recorder.events)
        return ob

    def test_round_trip_preserves_events(self, tmp_path):
        ob = self._fault_laden_observer()
        path = str(tmp_path / "trace.json")
        ob.recorder.dump_chrome_trace(path)
        loaded = TraceRecorder.load_chrome_trace(path)
        assert len(loaded.events) == len(ob.recorder.events)
        assert loaded.tracks() == ob.recorder.tracks()
        for got, want in zip(loaded.events, ob.recorder.events):
            assert _same_event(got, want)

    def test_round_trip_keeps_types_and_steps(self, tmp_path):
        ob = self._fault_laden_observer()
        path = str(tmp_path / "trace.json")
        ob.recorder.dump_chrome_trace(path)
        events = TraceRecorder.load_chrome_trace(path).events

        by_cat = {}
        for e in events:
            by_cat.setdefault(e.cat, []).append(e)
        assert {"train", "ckpt", "fault"} <= set(by_cat)
        # Step attribution survives the round trip.
        steps = sorted(e.args["step"] for e in by_cat["train"]
                       if e.name == "train_step")
        assert steps == [0, 1, 2]
        assert by_cat["ckpt"][0].args == {"step": 1, "path": "x.npz"}
        fault_names = [e.name for e in by_cat["fault"]]
        assert fault_names == ["injected", "recovered"]
        # Instants parse back as instants, spans as spans.
        assert all(e.phase == "i" for e in by_cat["fault"])
        assert any(e.phase == "X" for e in by_cat["train"])

    def test_wall_clock_timestamps_monotonic(self, tmp_path):
        ob = self._fault_laden_observer()
        path = str(tmp_path / "trace.json")
        ob.recorder.dump_chrome_trace(path)
        events = TraceRecorder.load_chrome_trace(path).events
        wall = [e.ts for e in events if e.track == "main"]
        assert wall
        assert all(b >= a for a, b in zip(wall, wall[1:]))


class TestMoEIntegration:
    @staticmethod
    def _layer():
        from repro.nn.moe import MoE
        rng = np.random.default_rng(0)
        layer = MoE(8, 16, 4, rng)
        layer.freeze()
        return layer, rng

    def test_functional_layer_emits_spans_and_routing(self):
        from repro.autograd.tensor import Tensor
        layer, rng = self._layer()
        x = rng.normal(size=(32, 8))
        ob = obs.enable()
        layer(Tensor(x))
        names = {e.name for e in ob.recorder.events}
        assert set(MOE_STAGES) <= names
        # The layer keeps its routing record; the loop that drives it
        # publishes (repro.obs.loop), so no gauge moved here.
        stats = layer.last_routing_stats
        assert (stats.num_tokens, stats.num_experts) == (32, 4)
        assert stats.dropped_fraction \
            == layer.last_routing_criteria.dropped_fraction()
        assert ob.registry.gauge("routing.dropped_fraction").updates == 0

    def test_one_stage_clock_feeds_observer_and_profiler(self):
        # Each stage of a taped and of a frozen forward is timed once:
        # one count on its moe.<stage> histogram and one by_stage row.
        from repro.autograd.tensor import Tensor
        from repro.nn.moe import MoE
        from repro.obs.profiler import profiling
        frozen, rng = self._layer()
        taped = MoE(8, 16, 4, np.random.default_rng(1))
        ob = obs.enable()
        for n, layer in enumerate((taped, frozen), start=1):
            with profiling() as prof:
                layer(Tensor(rng.normal(size=(16, 8))))
            assert set(MOE_STAGES) <= set(prof.by_stage())
            assert [ob.registry.histogram(f"moe.{s}").count
                    for s in MOE_STAGES] == [n] * len(MOE_STAGES)
        assert {e.name for e in ob.recorder.events} == set(MOE_STAGES)

    def test_disabled_layer_forward_records_nothing(self):
        from repro.autograd.tensor import Tensor
        layer, rng = self._layer()
        out, _ = layer(Tensor(rng.normal(size=(16, 8))))
        assert out.shape == (16, 8)  # and no observer to check


class TestTrainerIntegration:
    def _train(self, steps=2):
        from repro.nn.models import MoEClassifier
        from repro.train.data import ClusteredTokenTask
        from repro.train.trainer import train_model
        task = ClusteredTokenTask(num_clusters=4, input_dim=6,
                                  num_classes=3, noise=0.4, seed=0)
        rng = np.random.default_rng(0)
        model = MoEClassifier(input_dim=6, model_dim=16, hidden_dim=32,
                              num_classes=3, num_blocks=2, num_experts=4,
                              rng=rng, top_k=2)
        result = train_model(model, task.sample(128), task.sample(64),
                             steps=steps, batch_size=32)
        return model, result

    def test_step_trace_has_moe_spans_and_routing_stats(self, tmp_path):
        # Acceptance criterion: one trainer step's trace carries
        # gate/dispatch/expert_ffn/combine spans and exports valid Chrome
        # JSON; per-step, per-layer routing lands in the records that
        # keep it — TrainResult.capacity_traces and the run's
        # ``routing`` events, none of them for the evaluation forward.
        from repro.obs.runs import RunStore, recording_run
        ob = obs.enable()
        with recording_run(root=tmp_path, run_id="r"):
            model, result = self._train(steps=2)
        names = {e.name for e in ob.recorder.events}
        assert {"step", "forward", "backward", "optimizer",
                *MOE_STAGES} <= names

        n_layers = len(model.moe_layers())
        assert sorted(result.capacity_traces) == list(range(n_layers))
        for trace in result.capacity_traces.values():
            assert len(trace) == 2 and all(f >= 1.0 for f in trace)
        routing = [(e["step"], e["data"]["layer"])
                   for e in RunStore(tmp_path).events("r")
                   if e["kind"] == "routing"]
        assert sorted(routing) == [(step, layer) for step in (0, 1)
                                   for layer in range(n_layers)]

        parsed = json.loads(ob.recorder.dumps_chrome_trace())
        spans = [e for e in parsed["traceEvents"] if e.get("ph") == "X"]
        assert spans
        for e in spans:
            assert {"ph", "ts", "dur", "name"} <= set(e)

    def test_capacity_factor_series_excludes_eval(self):
        ob = obs.enable(trace=False)
        model, result = self._train(steps=3)
        series = result.capacity_traces[0]
        assert len(series) == 3
        assert all(f >= 1.0 for f in series)
        # The routing gauges are set at ticks only: the held-out
        # evaluation forward does not overwrite the last training step.
        layers = model.moe_layers()
        gauge = ob.registry.gauge("routing.needed_capacity_factor")
        assert gauge.updates == 3 * len(layers)
        assert gauge.value == result.capacity_traces[len(layers) - 1][-1]
        # ...although the evaluation batch (64 tokens) ran last.
        assert layers[-1].last_routing_stats.num_tokens == 64

    def test_tick_is_the_only_routing_publisher(self, monkeypatch):
        from repro.autograd.tensor import Tensor
        from repro.nn.moe import MoE
        from repro.obs.loop import LoopTelemetry
        rng = np.random.default_rng(0)
        layers = [MoE(8, 16, 4, rng) for _ in range(2)]
        published = []
        monkeypatch.setattr(Observer, "record_routing",
                            lambda self, stats: published.append(stats))
        for enabled, want in ((False, 0), (True, 2)):
            if enabled:
                obs.enable(trace=False)
            with LoopTelemetry("train") as tel:
                for layer in layers:
                    layer(Tensor(rng.normal(size=(16, 8))))
                assert published == []     # a forward publishes nothing
                tel.tick(0, "step", {}, layers=layers)
            assert tel.active is enabled
            assert len(published) == want
        assert published == [la.last_routing_stats for la in layers]

    def test_metrics_counters(self):
        ob = obs.enable(trace=False)
        self._train(steps=2)
        assert ob.registry.counter("train.steps").value == 2
        assert ob.registry.histogram("train.step").count == 2


class TestSimulatorIntegration:
    def test_sim_spans_land_on_stream_tracks(self):
        from repro.cluster.simulator import Schedule, simulate
        sched = Schedule()
        a = sched.new_op(work=1.0, stream="compute", kind="compute",
                         label="ffn")
        sched.new_op(work=0.5, stream="comm", kind="comm", label="a2a",
                     deps=(a,))
        ob = obs.enable()
        result = simulate(sched)
        tracks = {e.track for e in ob.recorder.events}
        assert {"sim/gpu0/compute", "sim/gpu0/comm"} <= tracks
        ffn = [e for e in ob.recorder.events if e.name == "ffn"][0]
        assert (ffn.ts, ffn.dur) == result.spans[a]
        # The recorder holds exactly the simulator's one feed, and the
        # registry the two aggregates (no per-label histograms).
        assert ob.recorder.events == list(result.trace_events())
        assert ob.registry.counter("sim.ops").value == 2
        assert ob.registry.histogram("sim.makespan").count == 1
        assert not [name for name in ob.registry.snapshot()["histograms"]
                    if name != "sim.makespan"]

    def test_simulated_and_wall_clock_share_one_trace(self):
        from repro.cluster.simulator import Schedule, simulate
        sched = Schedule()
        sched.new_op(work=1.0, label="compute")
        ob = obs.enable()
        with obs.span("wall_work", "bench"):
            simulate(sched)
        cats = {e.cat for e in ob.recorder.events}
        assert {"sim", "bench"} <= cats


class TestAdaptiveSearchIntegration:
    def test_exploration_log(self):
        from repro.pipeline.adaptive import OnlinePipeliningSearch
        search = OnlinePipeliningSearch()
        ob = obs.enable()
        n = len(search.strategies)
        for _ in range(n):
            search.step(2.0, lambda s: float(s.degree))
        explores = [e for e in ob.recorder.events if e.name == "explore"]
        assert len(explores) == n          # each strategy explored once
        # A nearby factor lands in the already-explored bucket: no new
        # exploration, the shared measurements answer immediately.
        for _ in range(3):
            search.step(2.5, lambda s: float(s.degree))
        explores = [e for e in ob.recorder.events if e.name == "explore"]
        assert len(explores) == n
        assert ob.registry.counter("pipeline.bucket_hits").value == 3
        assert (ob.registry.counter("pipeline.measurements").value
                == n + 3)
        assert ob.registry.histogram("pipeline.measured_time").count \
            == n + 3


class TestCollectivesIntegration:
    def test_all_to_all_spans(self):
        from repro.collectives.functional import (
            all_to_all_2dh_phases,
            flexible_all_to_all,
        )
        rng = np.random.default_rng(0)
        world = [rng.normal(size=(4, 3)) for _ in range(4)]
        ob = obs.enable()
        flexible_all_to_all(world, 0, 0)
        all_to_all_2dh_phases(world, gpus_per_node=2)
        names = {e.name for e in ob.recorder.events}
        assert {"flexible_all_to_all", "all_to_all_2dh"} <= names
        assert ob.registry.histogram(
            "collective.flexible_all_to_all").count == 1


class TestHistogramSmallNExact:
    """Serving SLO gates read p99 from short ``--fast`` runs, which
    must see *exact* order statistics — no sampling noise — while the
    observation count is within the reservoir."""

    def test_exact_at_reservoir_capacity_matches_numpy(self):
        from repro.obs.registry import RESERVOIR_SIZE

        rng = np.random.default_rng(5)
        values = rng.exponential(10.0, RESERVOIR_SIZE)
        h = MetricsRegistry().histogram("serve.latency")
        for v in values:
            h.observe(float(v))
        for q in (0.5, 0.95, 0.99):
            # rel=1e-12: same order statistics, numpy just associates
            # the interpolation arithmetic differently.
            assert h.quantile(q) == pytest.approx(
                float(np.percentile(values, q * 100,
                                    method="linear")), rel=1e-12)

    def test_order_independent_at_small_n(self):
        a = MetricsRegistry().histogram("x")
        b = MetricsRegistry().histogram("x")
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        for v in values:
            a.observe(v)
        for v in sorted(values):
            b.observe(v)
        for q in (0.25, 0.5, 0.99):
            assert a.quantile(q) == b.quantile(q)


class TestFlowEvents:
    def test_flow_chrome_export_carries_id_and_binding(self):
        rec = TraceRecorder()
        rec.span("batch 0", "serve", 0.010, 0.005,
                 track="serve/engine")
        rec.flow("req 3", "serve", "s", 0.001, flow_id=3,
                 track="serve/requests")
        rec.flow("req 3", "serve", "t", 0.005, flow_id=3,
                 track="serve/requests")
        rec.flow("req 3", "serve", "f", 0.010, flow_id=3,
                 track="serve/engine")
        chrome = rec.to_chrome_trace()
        flows = [e for e in chrome["traceEvents"]
                 if e.get("ph") in ("s", "t", "f")]
        assert [e["ph"] for e in flows] == ["s", "t", "f"]
        assert all(e["id"] == 3 for e in flows)
        # Only the finish binds to the enclosing slice.
        assert flows[2]["bp"] == "e"
        assert "bp" not in flows[0] and "bp" not in flows[1]
        # Timestamps convert to microseconds like every other phase.
        assert flows[0]["ts"] == pytest.approx(1e3)

    def test_flow_validates_phase(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            rec.flow("x", "serve", "X", 0.0, flow_id=1)

    def test_every_phase_roundtrips_through_the_file(self, tmp_path):
        rec = TraceRecorder()
        rec.span("batch 0", "serve", 0.010, 0.005, track="serve/engine",
                 args={"requests": 2})
        rec.instant("saved", "ckpt", 0.011)
        rec.counter("live_bytes", "prof", 0.012, {"bytes": 4096.0})
        for phase, ts, track in (("s", 0.25, "serve/requests"),
                                 ("t", 0.5, "serve/requests"),
                                 ("f", 0.75, "serve/engine")):
            rec.flow("req 1", "serve", phase, ts, flow_id=1, track=track)
        path = str(tmp_path / "trace.json")
        rec.dump_chrome_trace(path)
        back = TraceRecorder.load_chrome_trace(path)
        assert [e.phase for e in back.events] == \
            ["X", "i", "C", "s", "t", "f"]
        assert all(map(_same_event, back.events, rec.events))
        flow = back.events[3]
        assert flow.args == {"flow_id": 1}
        assert flow.track == "serve/requests"

    def test_load_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "not-a-trace.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            TraceRecorder.load_chrome_trace(str(path))
