"""Tests for the discrete-event multi-stream GPU simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cluster.simulator import (
    SLOWDOWN,
    Op,
    Schedule,
    SimResult,
    interference_rate,
    simulate,
)
from repro.obs import analysis
from repro.obs.trace import TraceRecorder


def make_chain(*works, stream_cycle=("comm", "compute", "comm")):
    s = Schedule()
    prev = None
    for i, w in enumerate(works):
        op = s.new_op(work=w, stream=stream_cycle[i % len(stream_cycle)],
                      kind="comm" if i % 2 == 0 else "compute",
                      deps=(prev,) if prev else (), label=f"op{i}")
        prev = op
    return s


class TestBasics:
    def test_single_op(self):
        s = Schedule()
        s.new_op(work=2.5, label="only")
        assert simulate(s).makespan == pytest.approx(2.5)

    def test_serial_chain_sums(self):
        s = make_chain(1.0, 2.0, 3.0)
        assert simulate(s).makespan == pytest.approx(6.0)

    def test_zero_work_barrier(self):
        s = Schedule()
        a = s.new_op(work=1.0, stream="comm", label="a")
        s.new_op(work=0.0, stream="compute", kind="host", deps=(a,),
                 label="barrier")
        assert simulate(s).makespan == pytest.approx(1.0)

    def test_all_zero_work(self):
        s = Schedule()
        a = s.new_op(work=0.0, kind="host", label="a")
        s.new_op(work=0.0, kind="host", deps=(a,), label="b")
        assert simulate(s).makespan == 0.0

    def test_spans_recorded(self):
        s = make_chain(1.0, 2.0)
        result = simulate(s)
        (a, b) = s.ops
        assert result.spans[a] == (pytest.approx(0.0), pytest.approx(1.0))
        assert result.spans[b][0] == pytest.approx(1.0)

    def test_rejects_foreign_dependency(self):
        s = Schedule()
        ghost = Op(work=1.0, label="ghost")
        s.new_op(work=1.0, deps=(ghost,), label="x")
        with pytest.raises(ValueError):
            simulate(s)

    def test_rejects_negative_work(self):
        with pytest.raises(ValueError):
            Op(work=-1.0)

    def test_circular_deadlock_detected(self):
        s = Schedule()
        a = Op(work=1.0, label="a")
        b = Op(work=1.0, stream="other", deps=(a,), label="b")
        a.deps = (b,)
        s.add(a)
        s.add(b)
        with pytest.raises(RuntimeError, match="deadlock"):
            simulate(s)

    def test_deadlock_diagnostic_names_blocked_ops(self):
        """The error must list exactly the blocked ops with their
        unmet dependencies, so a cycle is readable from the message."""
        s = Schedule()
        a = Op(work=1.0, label="ping")
        b = Op(work=1.0, stream="other", deps=(a,), label="pong")
        a.deps = (b,)
        s.add(a)
        s.add(b)
        # A completed-before-deadlock op must NOT appear as blocked.
        s.new_op(work=0.5, gpu=1, label="innocent")
        with pytest.raises(RuntimeError) as exc:
            simulate(s)
        message = str(exc.value)
        assert "ping <- unmet [pong]" in message
        assert "pong <- unmet [ping]" in message
        assert "innocent" not in message


class TestStreams:
    def test_same_stream_serializes(self):
        s = Schedule()
        s.new_op(work=1.0, stream="comm", kind="comm", label="a")
        s.new_op(work=1.0, stream="comm", kind="comm", label="b")
        assert simulate(s).makespan == pytest.approx(2.0)

    def test_different_streams_no_interference(self):
        s = Schedule()
        s.new_op(work=1.0, stream="s1", kind="host", label="a")
        s.new_op(work=1.0, stream="s2", kind="host", label="b")
        assert simulate(s).makespan == pytest.approx(1.0)

    def test_different_gpus_fully_parallel(self):
        s = Schedule()
        s.new_op(work=1.0, gpu=0, kind="compute", label="a")
        s.new_op(work=1.0, gpu=1, kind="comm", stream="comm", label="b")
        assert simulate(s).makespan == pytest.approx(1.0)

    def test_fifo_order_respected(self):
        s = Schedule()
        s.new_op(work=1.0, stream="comm", kind="comm", label="a")
        blocker = s.new_op(work=5.0, gpu=1, kind="compute", label="blk")
        # b is queued first on comm but depends on the slow blocker;
        # c is behind b in FIFO and must wait even though it is ready.
        b = s.new_op(work=1.0, stream="comm", kind="comm",
                     deps=(blocker,), label="b")
        c = s.new_op(work=1.0, stream="comm", kind="comm", label="c")
        result = simulate(s)
        assert result.spans[c][0] >= result.spans[b][0]


class TestInterference:
    def test_overlap_slows_both(self):
        s = Schedule()
        s.new_op(work=1.0, stream="compute", kind="compute", label="comp")
        s.new_op(work=1.0, stream="comm", kind="comm", label="comm")
        makespan = simulate(s).makespan
        # Full overlap: both slowed, so longer than 1.0 but far less
        # than serial 2.0.
        assert 1.0 < makespan < 1.5

    def test_memcpy_comm_interferes_more(self):
        def run(kind):
            s = Schedule()
            s.new_op(work=1.0, stream="compute", kind="compute", label="c")
            s.new_op(work=1.0, stream="comm", kind=kind, label="x")
            return simulate(s).makespan
        assert run("comm_memcpy") > run("comm")

    def test_host_ops_do_not_interfere(self):
        s = Schedule()
        s.new_op(work=1.0, stream="compute", kind="compute", label="c")
        s.new_op(work=1.0, stream="host", kind="host", label="h")
        assert simulate(s).makespan == pytest.approx(1.0)

    def test_victim_aggressor_asymmetry(self):
        # The table's asymmetry: NCCL slows compute less than compute
        # slows NCCL, and the 2DH stride copies are the heavier
        # aggressor and the heavier victim.
        assert SLOWDOWN["compute"]["comm"] < SLOWDOWN["comm"]["compute"]
        assert SLOWDOWN["compute"]["comm"] < \
            SLOWDOWN["compute"]["comm_memcpy"]
        assert SLOWDOWN["comm"]["compute"] < \
            SLOWDOWN["comm_memcpy"]["compute"]
        assert "host" not in SLOWDOWN

    def test_slowdown_stretches_the_victim(self):
        # A compute op under a long comm op runs at 1/1.08 of its rate.
        s = Schedule()
        s.new_op(work=1.0, stream="compute", kind="compute", label="c")
        s.new_op(work=10.0, stream="comm", kind="comm", label="x")
        result = simulate(s)
        comp = next(op for op in s.ops if op.label == "c")
        start, end = result.spans[comp]
        assert end - start == pytest.approx(SLOWDOWN["compute"]["comm"])

    def test_rate_counts_each_kind_once(self):
        assert interference_rate("compute", ["comm", "comm", "comm"]) == \
            1 / SLOWDOWN["compute"]["comm"]
        assert interference_rate("compute", ["comm", "comm_memcpy"]) == \
            1 / (SLOWDOWN["compute"]["comm"]
                 * SLOWDOWN["compute"]["comm_memcpy"])
        assert interference_rate("host", ["compute", "comm"]) == 1.0


def reference_host_schedule(ops):
    """Independent list scheduler for interference-free (host) DAGs.

    Fixed-point iteration over per-(gpu, stream) FIFO queues: a queue
    head whose dependencies have finished starts at
    ``max(stream available, dep end times)``.  For ``kind="host"`` ops
    the event-driven simulator must agree exactly — rates are always
    1.0, so spans are pure queueing arithmetic.
    """
    queues = {}
    for op in ops:
        queues.setdefault((op.gpu, op.stream), []).append(op)
    avail = {key: 0.0 for key in queues}
    spans = {}
    while len(spans) < len(ops):
        progressed = False
        for key, queue in queues.items():
            while queue:
                op = queue[0]
                if any(d not in spans for d in op.deps):
                    break
                start = max([avail[key]]
                            + [spans[d][1] for d in op.deps])
                spans[op] = (start, start + op.work)
                avail[key] = start + op.work
                queue.pop(0)
                progressed = True
        if not progressed:
            raise RuntimeError("reference scheduler deadlocked")
    makespan = max(end for _, end in spans.values()) if spans else 0.0
    return makespan, spans


class TestReferenceAgreement:
    """The event-driven engine against an independent reference
    implementation on large random DAGs (regression guard for the
    reverse-dependents-index rewrite of the completion path)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_dag_agreement(self, seed):
        rng = np.random.default_rng(seed)
        s = Schedule()
        ops = []
        for i in range(300):
            num_deps = int(rng.integers(0, 4)) if ops else 0
            deps = tuple(ops[int(j)] for j in set(
                rng.integers(0, len(ops), num_deps).tolist())) \
                if num_deps else ()
            work = float(rng.uniform(0.0, 0.05))
            if rng.uniform() < 0.1:
                work = 0.0  # exercise the instant-completion path
            ops.append(s.new_op(
                work=work, gpu=int(rng.integers(0, 4)),
                stream=str(rng.choice(["s0", "s1"])),
                kind="host", deps=deps, label=f"op{i}"))
        ref_makespan, ref_spans = reference_host_schedule(s.ops)
        result = simulate(s)
        assert result.makespan == pytest.approx(ref_makespan)
        for op in s.ops:
            got, want = result.spans[op], ref_spans[op]
            assert got[0] == pytest.approx(want[0]), op.label
            assert got[1] == pytest.approx(want[1]), op.label

    def test_wide_fanout_agreement(self):
        # One root feeding 200 dependents across GPUs: the shape the
        # old O(N^2) dependency clearing was slowest on.
        rng = np.random.default_rng(7)
        s = Schedule()
        root = s.new_op(work=0.01, kind="host", label="root")
        leaves = [s.new_op(work=float(rng.uniform(0.001, 0.01)),
                           gpu=g % 8, stream=f"s{g % 2}", kind="host",
                           deps=(root,), label=f"leaf{g}")
                  for g in range(200)]
        s.new_op(work=0.0, kind="host", deps=tuple(leaves),
                 label="join")
        ref_makespan, _ = reference_host_schedule(s.ops)
        assert simulate(s).makespan == pytest.approx(ref_makespan)


@st.composite
def random_schedules(draw) -> Schedule:
    """1-40 ops on 1-4 GPUs x {compute, comm}, each depending on a
    random set of earlier ops; some zero-work barriers, some comm ops
    with a latency floor."""
    num_gpus = draw(st.integers(1, 4))
    work = st.floats(1e-6, 1.0, allow_nan=False)
    s = Schedule()
    for i in range(draw(st.integers(1, 40))):
        stream = draw(st.sampled_from(["compute", "comm"]))
        kind = (draw(st.sampled_from(["comm", "comm_memcpy"]))
                if stream == "comm" else "compute")
        w = draw(st.one_of(st.just(0.0), work))
        if w == 0.0:
            kind = "host"
        latency = (draw(st.floats(0.0, 1.0)) * w if stream == "comm"
                   else 0.0)
        deps = draw(st.sets(st.sampled_from(s.ops), max_size=3)) \
            if s.ops else ()
        s.new_op(work=w, gpu=draw(st.integers(0, num_gpus - 1)),
                 stream=stream, kind=kind, latency=latency,
                 deps=tuple(sorted(deps, key=lambda op: op._uid)),
                 label=f"op{i}")
    return s


def through_the_file(recorder: TraceRecorder, tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    recorder.dump_chrome_trace(path)
    return SimResult.from_trace_events(
        TraceRecorder.load_chrome_trace(path).events)


class TestRandomDagInvariants:
    """The simulator's invariants on random DAGs, checked on the
    result *and* on what the trace file gives back (ROADMAP 7b)."""

    @settings(max_examples=60, deadline=None)
    @given(schedule=random_schedules())
    def test_invariants_survive_the_trace_file(self, schedule,
                                               tmp_path_factory):
        result = simulate(schedule)
        path = analysis.critical_path(result)
        recorder = TraceRecorder()
        recorder.extend(result.trace_events(path))
        loaded, rebuilt = through_the_file(recorder, tmp_path_factory)

        def describe(op):
            return (op.label, op.kind, op.gpu, op.stream, op.work,
                    op.latency, sorted(d.label for d in op.deps))

        by_label = {op.label: op for op in rebuilt.ops}
        assert sorted(map(describe, rebuilt.ops)) == \
            sorted(map(describe, schedule.ops))
        # Exact: args carry the spans in seconds beside the file's
        # rounded microsecond ts/dur.
        assert loaded.makespan == result.makespan
        for op in schedule.ops:
            assert loaded.spans[by_label[op.label]] == result.spans[op]

        for res in (result, loaded):
            slack = 1e-9 * max(res.makespan, 1.0)
            lanes = {}
            for op, (start, end) in res.spans.items():
                assert all(start >= res.spans[d][1] - slack
                           for d in op.deps), op.label
                lanes.setdefault((op.gpu, op.stream), []).append(
                    (start, end))
            for lane in lanes.values():
                lane.sort()
                assert all(b[0] >= a[1] - slack
                           for a, b in zip(lane, lane[1:]))
            chain = analysis.critical_path(res)
            assert res.makespan >= (res.spans[chain[-1]][1]
                                    - res.spans[chain[0]][0]) - slack

        assert analysis.analyze(loaded, rebuilt).render() == \
            analysis.analyze(result, schedule).render()

    def test_observer_file_replays_the_last_simulation(
            self, tmp_path_factory):
        first, second = Schedule(), Schedule()
        first.new_op(work=1.0, label="only")
        a = second.new_op(work=0.25, stream="comm", kind="comm",
                          label="a2a")
        second.new_op(work=0.5, gpu=1, deps=(a,), label="ffn")
        ob = obs.enable()
        try:
            with obs.span("step", obs.CAT_TRAIN):
                simulate(first)
            with obs.span("gate", obs.CAT_MOE):
                want = simulate(second)
            ob.instant("saved", obs.CAT_CKPT)
        finally:
            obs.disable()
        loaded, rebuilt = through_the_file(ob.recorder, tmp_path_factory)
        # Wall-clock train.* / moe.* spans share the file and are
        # ignored; of the two simulations the later one comes back.
        assert [op.label for op in rebuilt.ops] == ["a2a", "ffn"]
        assert rebuilt.ops[1].deps == (rebuilt.ops[0],)
        assert loaded.makespan == want.makespan
        assert analysis.analyze(loaded, rebuilt).render() == \
            analysis.analyze(want, second).render()


