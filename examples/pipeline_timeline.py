"""Export a pipelining timeline to chrome://tracing.

Builds the multi-stream schedule of one pipelined MoE segment (the
Figure 14 overlap pattern) at several degrees, simulates it with the
compute/communication interference model, prints a text gantt, and
writes chrome-trace JSON files you can open in chrome://tracing or
https://ui.perfetto.dev.

Run:  python examples/pipeline_timeline.py
"""

from pathlib import Path

from repro.cluster.simulator import simulate
from repro.cluster.topology import ndv4_topology
from repro.collectives.schedule import A2AAlgorithm
from repro.core.config import MoEConfig
from repro.obs.trace import TraceRecorder
from repro.pipeline.schedule import PipelineStrategy, build_pipeline_schedule


def text_gantt(result, width=72):
    """Render op spans as an ASCII timeline per stream."""
    makespan = result.makespan
    rows = {}
    for op, (start, end) in result.spans.items():
        if op.work == 0:
            continue
        lo = int(start / makespan * width)
        hi = max(lo + 1, int(end / makespan * width))
        row = rows.setdefault(op.stream, [" "] * width)
        char = "#" if op.kind == "compute" else "="
        for i in range(lo, min(hi, width)):
            row[i] = char
    return "\n".join(f"  {name:8s}|{''.join(cells)}|"
                     for name, cells in sorted(rows.items()))


def main():
    cfg = MoEConfig(world_size=256, experts_per_gpu=2, model_dim=2048,
                    hidden_dim=2048, tokens_per_gpu=8192, top_k=2,
                    capacity_factor=1.0)
    topo = ndv4_topology(256)
    out_dir = Path("traces")
    out_dir.mkdir(exist_ok=True)

    for degree in (1, 2, 4):
        strategy = PipelineStrategy(degree=degree,
                                    algorithm=A2AAlgorithm.TWO_DH)
        schedule = build_pipeline_schedule(cfg, topo, strategy)
        result = simulate(schedule)
        print(f"degree {degree} (2DH): makespan "
              f"{result.makespan * 1e3:.2f} ms")
        print(text_gantt(result))
        path = out_dir / f"pipeline_deg{degree}.json"
        recorder = TraceRecorder()
        recorder.extend(result.trace_events())
        recorder.dump_chrome_trace(path)
        print(f"  trace written to {path}\n")

    print("'=' = All-to-All on the comm stream, '#' = expert compute; "
          "higher degrees interleave them (Figure 14).")


if __name__ == "__main__":
    main()
