"""Tests for the simulator's trace feed through the one Chrome writer."""

import json

import pytest

from repro.cluster.simulator import simulate
from repro.cluster.topology import ndv4_topology
from repro.core.config import MoEConfig
from repro.obs import CAT_CRITICAL
from repro.obs.trace import TraceRecorder
from repro.pipeline.schedule import PipelineStrategy, build_pipeline_schedule


def pipeline_result(degree=4):
    cfg = MoEConfig(world_size=64, experts_per_gpu=2, model_dim=1024,
                    hidden_dim=1024, tokens_per_gpu=4096, top_k=2)
    schedule = build_pipeline_schedule(cfg, ndv4_topology(64),
                                       PipelineStrategy(degree=degree))
    return simulate(schedule)


def chrome_events(result, critical=()):
    """The op/flow events of the Chrome JSON (metadata stripped)."""
    recorder = TraceRecorder()
    recorder.extend(result.trace_events(critical))
    return [e for e in recorder.to_chrome_trace()["traceEvents"]
            if e["ph"] != "M"]


class TestChromeTrace:
    def test_event_per_op(self):
        result = pipeline_result(degree=2)
        assert len(list(result.trace_events())) == len(result.spans)
        assert len(chrome_events(result)) == len(result.spans)

    def test_complete_events_have_duration(self):
        events = chrome_events(pipeline_result())
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        assert all(e["dur"] > 0 for e in complete)

    def test_barrier_is_instant_event(self):
        events = chrome_events(pipeline_result())
        instants = [e for e in events if e["ph"] == "i"]
        assert any(e["name"] == "barrier" for e in instants)

    def test_streams_become_threads(self):
        recorder = TraceRecorder()
        recorder.extend(pipeline_result().trace_events())
        assert {"sim/gpu0/comm", "sim/gpu0/compute"} \
            <= set(recorder.tracks())
        meta = [e for e in recorder.to_chrome_trace()["traceEvents"]
                if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == set(recorder.tracks())

    def test_events_sorted_by_start(self):
        events = chrome_events(pipeline_result())
        starts = [e["ts"] for e in events]
        assert starts == sorted(starts)

    def test_save_roundtrip(self, tmp_path):
        result = pipeline_result(degree=2)
        recorder = TraceRecorder()
        recorder.extend(result.trace_events())
        out = tmp_path / "trace.json"
        recorder.dump_chrome_trace(out)
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        loaded = TraceRecorder.load_chrome_trace(out)
        assert loaded.tracks() == recorder.tracks()
        assert [(e.name, e.cat, e.phase, e.track, e.args)
                for e in loaded.events] == \
            [(e.name, e.cat, e.phase, e.track, e.args)
             for e in recorder.events]

    def test_time_scale(self):
        # Simulated seconds are exported as the format's microseconds.
        result = pipeline_result(degree=1)
        last = chrome_events(result)[-1]
        assert last["ts"] == pytest.approx(
            1e6 * max(start for start, _ in result.spans.values()))

    def test_args_carry_replay_fields(self):
        # uid/deps/work make the trace machine-replayable
        # (SimResult.from_trace_events) on top of being viewable in
        # Perfetto.
        events = chrome_events(pipeline_result(degree=2))
        for e in events:
            assert {"uid", "deps", "work", "kind", "sim"} <= set(e["args"])

    def test_default_category_is_sim(self):
        events = chrome_events(pipeline_result(degree=1))
        assert {e["cat"] for e in events} == {"sim"}

    def test_critical_argument_flags_chain(self):
        from repro.obs import analysis

        result = pipeline_result(degree=2)
        path = analysis.critical_path(result)
        events = chrome_events(result, critical=path)
        crit = [e for e in events if e.get("cat") == CAT_CRITICAL
                and e["ph"] in ("X", "i")]
        assert len(crit) == len(path)
        flows = [e for e in events if e.get("name") == "critical_path"]
        assert len(flows) == 2 * (len(path) - 1)
