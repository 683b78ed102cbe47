"""Tests for repro.obs.analysis: critical paths, attribution, what-if."""

import numpy as np
import pytest

from repro import obs
from repro.cluster.simulator import Schedule, SimResult, simulate
from repro.cluster.topology import ndv4_topology
from repro.core.config import MoEConfig
from repro.obs import CAT_CRITICAL, analysis
from repro.obs.trace import TraceRecorder
from repro.pipeline.schedule import (
    PipelineStrategy,
    all_strategies,
    build_pipeline_schedule,
)


def random_host_schedule(seed, num_ops=120):
    """Random interference-free DAG (same shape as test_simulator's)."""
    rng = np.random.default_rng(seed)
    s = Schedule()
    ops = []
    for i in range(num_ops):
        num_deps = int(rng.integers(0, 4)) if ops else 0
        deps = tuple(ops[int(j)] for j in set(
            rng.integers(0, len(ops), num_deps).tolist())) \
            if num_deps else ()
        work = float(rng.uniform(0.0, 0.05))
        if rng.uniform() < 0.1:
            work = 0.0
        ops.append(s.new_op(
            work=work, gpu=int(rng.integers(0, 4)),
            stream=str(rng.choice(["s0", "s1"])),
            kind=str(rng.choice(["host", "compute", "comm"])),
            deps=deps, label=f"op{i}"))
    return s


def brute_force_longest_path(result):
    """Longest work-weighted chain through deps + realized FIFO edges.

    On an interference-free schedule the finish time of every op is
    exactly ``work + max(predecessor finishes)``, so the global longest
    chain equals the makespan — an independent check of both the
    simulator and :func:`analysis.critical_path`.
    """
    spans = result.spans
    preds = {op: list(op.deps) for op in spans}
    by_stream = {}
    for op in spans:
        by_stream.setdefault((op.gpu, op.stream), []).append(op)
    for lane in by_stream.values():
        lane.sort(key=lambda o: (spans[o][0], spans[o][1], o._uid))
        for prev, nxt in zip(lane, lane[1:]):
            preds[nxt].append(prev)

    finish = {}

    def dp(op):
        if op not in finish:
            finish[op] = op.work + max(
                (dp(p) for p in preds[op]), default=0.0)
        return finish[op]

    return max(dp(op) for op in spans)


class TestCriticalPath:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_agrees_with_brute_force_on_random_dags(self, seed):
        # Interference-free: use only host kind so rates are all 1.0.
        rng = np.random.default_rng(seed)
        s = Schedule()
        ops = []
        for i in range(150):
            num_deps = int(rng.integers(0, 4)) if ops else 0
            deps = tuple(ops[int(j)] for j in set(
                rng.integers(0, len(ops), num_deps).tolist())) \
                if num_deps else ()
            work = 0.0 if rng.uniform() < 0.1 else \
                float(rng.uniform(0.0, 0.05))
            ops.append(s.new_op(
                work=work, gpu=int(rng.integers(0, 4)),
                stream=str(rng.choice(["s0", "s1"])), kind="host",
                deps=deps, label=f"op{i}"))
        result = simulate(s)
        longest = brute_force_longest_path(result)
        assert result.makespan == pytest.approx(longest)
        path = critical = analysis.critical_path(result)
        total = sum(result.spans[op][1] - result.spans[op][0]
                    for op in critical)
        assert total == pytest.approx(result.makespan)
        # The chain is contiguous in time and ends at the makespan.
        assert result.spans[path[0]][0] == pytest.approx(0.0)
        assert result.spans[path[-1]][1] == pytest.approx(result.makespan)
        for a, b in zip(path, path[1:]):
            assert result.spans[a][1] == pytest.approx(result.spans[b][0])

    def test_empty_schedule(self):
        result = simulate(Schedule())
        assert analysis.critical_path(result) == []

    def test_single_chain(self):
        s = Schedule()
        a = s.new_op(work=1.0, kind="host", label="a")
        b = s.new_op(work=2.0, kind="host", deps=(a,), label="b")
        s.new_op(work=0.5, gpu=1, kind="host", label="off-path")
        result = simulate(s)
        path = analysis.critical_path(result)
        assert [op.label for op in path] == ["a", "b"]

    def test_breakdown_sums_to_chain_span(self):
        s = random_host_schedule(11)
        result = simulate(s)
        path = analysis.critical_path(result)
        bd = analysis.critical_path_breakdown(result, path)
        total = sum(result.spans[op][1] - result.spans[op][0]
                    for op in path)
        assert sum(bd.values()) == pytest.approx(total)
        assert set(bd) == {"compute", "comm", "other"}


class TestAttribution:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_stream_partition_is_exact(self, seed):
        result = simulate(random_host_schedule(seed))
        for lane in analysis.stream_attribution(result):
            total = lane.compute + lane.comm + lane.other + lane.idle
            assert total == pytest.approx(result.makespan)
            assert lane.idle >= -1e-9

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_gpu_partition_is_exact(self, seed):
        result = simulate(random_host_schedule(seed))
        for g in analysis.gpu_attribution(result):
            total = g.compute + g.comm + g.other + g.idle
            assert total == pytest.approx(result.makespan)
            assert g.idle >= -1e-9
            assert 0.0 <= g.comm_overlapped <= g.comm_active + 1e-12

    def test_fully_serial_has_no_overlap(self):
        s = Schedule()
        a = s.new_op(work=1.0, stream="comm", kind="comm", label="a")
        s.new_op(work=1.0, stream="compute", kind="compute", deps=(a,),
                 label="b")
        result = simulate(s)
        assert analysis.overlap_efficiency(result) == pytest.approx(0.0)

    def test_perfect_overlap(self):
        s = Schedule()
        s.new_op(work=1.0, stream="comm", kind="comm", label="a")
        s.new_op(work=2.0, stream="compute", kind="compute", label="b")
        result = simulate(s)
        # All communication time has concurrent compute above it.
        assert analysis.overlap_efficiency(result) == pytest.approx(1.0)


def _fig22_cfg(world=64, f=4.0):
    return MoEConfig(world_size=world, experts_per_gpu=2,
                     model_dim=4096, hidden_dim=4096,
                     tokens_per_gpu=4096, top_k=2, capacity_factor=f)


class TestPipelineAcceptance:
    """The ISSUE acceptance criteria on the Figure 22 schedule."""

    def test_attribution_sums_and_overlap_increases(self):
        cfg = _fig22_cfg()
        topo = ndv4_topology(cfg.world_size)
        base_sched = build_pipeline_schedule(
            cfg, topo, PipelineStrategy(degree=1))
        base = simulate(base_sched)
        best_strategy = min(
            all_strategies(),
            key=lambda s: simulate(
                build_pipeline_schedule(cfg, topo, s)).makespan)
        assert best_strategy.degree > 1
        best_sched = build_pipeline_schedule(cfg, topo, best_strategy)
        best = simulate(best_sched)

        for result in (base, best):
            for lane in analysis.stream_attribution(result):
                assert lane.compute + lane.comm + lane.other + lane.idle \
                    == pytest.approx(result.makespan)
        base_eff = analysis.overlap_efficiency(base)
        best_eff = analysis.overlap_efficiency(best)
        assert base_eff == pytest.approx(0.0)
        assert best_eff > base_eff  # strictly increases with pipelining

    def test_whatif_bounds_ordering(self):
        cfg = _fig22_cfg()
        topo = ndv4_topology(cfg.world_size)
        sched = build_pipeline_schedule(cfg, topo,
                                        PipelineStrategy(degree=2))
        bounds = analysis.whatif_bounds(sched)
        assert bounds["zero_comm"] <= bounds["infinite_bandwidth"] + 1e-12
        assert bounds["infinite_bandwidth"] <= bounds["actual"] + 1e-12
        assert bounds["actual"] == pytest.approx(
            simulate(sched).makespan)
        # The latency floor is a real (nonzero) gap from free comms.
        assert bounds["infinite_bandwidth"] > bounds["zero_comm"]

    def test_whatif_does_not_pollute_observer(self):
        ob = obs.enable()
        try:
            cfg = _fig22_cfg(world=16)
            sched = build_pipeline_schedule(
                cfg, ndv4_topology(16), PipelineStrategy(degree=2))
            before = len(ob.recorder.events)
            analysis.whatif_bounds(sched)
            assert len(ob.recorder.events) == before
        finally:
            obs.disable()

    def test_clone_schedule_preserves_makespan(self):
        sched = random_host_schedule(21)
        clone = analysis.clone_schedule(sched)
        assert simulate(clone).makespan == \
            pytest.approx(simulate(sched).makespan)
        assert not (set(clone.ops) & set(sched.ops))


class TestAnalyzeReport:
    def test_report_fields_and_render(self):
        cfg = _fig22_cfg()
        topo = ndv4_topology(cfg.world_size)
        sched = build_pipeline_schedule(cfg, topo,
                                        PipelineStrategy(degree=2))
        result = simulate(sched)
        report = analysis.analyze(result, sched)
        assert report.makespan == result.makespan
        assert len(report.critical) == len(report.critical_times)
        assert report.bounds  # schedule given -> bounds computed
        text = report.render()
        assert "Per-stream attribution" in text
        assert "Critical path" in text
        assert "what-if bounds" in text

    def test_analyze_without_schedule_recovers_ops(self):
        result = simulate(random_host_schedule(3))
        report = analysis.analyze(result)
        assert report.bounds  # recovered from result.spans


class TestCriticalTraceExport:
    def test_critical_ops_get_category_and_flow_events(self):
        s = Schedule()
        a = s.new_op(work=1.0, kind="comm", stream="comm", label="a")
        b = s.new_op(work=1.0, kind="compute", deps=(a,), label="b")
        s.new_op(work=0.1, gpu=1, kind="host", label="off")
        result = simulate(s)
        path = analysis.critical_path(result)
        assert [op.label for op in path] == ["a", "b"]
        events = list(result.trace_events(critical=path))
        crit_spans = [e for e in events
                      if e.cat == CAT_CRITICAL and e.phase in ("X", "i")]
        assert len(crit_spans) == 2
        assert [e.args["critical_index"] for e in crit_spans] == [0, 1]
        flows = [e for e in events if e.name == "critical_path"]
        assert [e.phase for e in flows] == ["s", "f"]
        off = [e for e in events if e.name == "off"]
        assert off[0].cat == "sim"

    def test_trace_roundtrip_reanalyzes_identically(self, tmp_path):
        cfg = _fig22_cfg()
        topo = ndv4_topology(cfg.world_size)
        sched = build_pipeline_schedule(cfg, topo,
                                        PipelineStrategy(degree=2))
        result = simulate(sched)
        path = analysis.critical_path(result)
        trace = tmp_path / "trace.json"
        recorder = TraceRecorder()
        recorder.extend(result.trace_events(critical=path))
        recorder.dump_chrome_trace(trace)
        loaded_result, loaded_sched = SimResult.from_trace_events(
            TraceRecorder.load_chrome_trace(trace).events)
        assert loaded_result.makespan == pytest.approx(result.makespan)
        reloaded = analysis.analyze(loaded_result, loaded_sched)
        assert [op.label for op in reloaded.critical] == \
            [op.label for op in path]
        assert reloaded.overlap_efficiency == pytest.approx(
            analysis.overlap_efficiency(result))

    def test_load_rejects_foreign_trace(self, tmp_path):
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"traceEvents": [{"ph": "X", "ts": 0, '
                           '"dur": 1, "name": "x", "args": {}}]}')
        with pytest.raises(ValueError):
            SimResult.from_trace_events(
                TraceRecorder.load_chrome_trace(foreign).events)
