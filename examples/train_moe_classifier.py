"""Train a sparse MoE classifier end to end and compare with dense.

The SwinV2-MoE recipe at toy scale: every other FFN block replaced by
an MoE layer, GShard load-balancing loss, top-1 routing, capacity
factor 1.25, batch prioritized routing available as a flag.  Prints
the dynamic capacity-factor trace the run produced — the same quantity
as paper Figure 1.

Run:  python examples/train_moe_classifier.py
"""

import numpy as np

from repro.nn.models import DenseClassifier, MoEClassifier
from repro.train.data import ClusteredTokenTask
from repro.train.trainer import evaluate, train_model


def main():
    task = ClusteredTokenTask(num_clusters=32, input_dim=16,
                              num_classes=8, noise=0.5, seed=0)
    train = task.sample(8192)
    test = task.sample(4096)

    dense = DenseClassifier(16, 32, 64, 8, num_blocks=2,
                            rng=np.random.default_rng(0))
    dense_result = train_model(dense, train, test, steps=300,
                               batch_size=512, lr=5e-3, seed=0)
    print(f"dense:  eval acc {dense_result.eval_accuracy:.3f}  "
          f"params {dense.num_parameters()}")

    moe = MoEClassifier(16, 32, 64, 8, num_blocks=2, num_experts=32,
                        rng=np.random.default_rng(0), top_k=1,
                        capacity_factor=1.25)
    moe_result = train_model(moe, train, test, steps=300,
                             batch_size=512, lr=5e-3, seed=0)
    print(f"moe:    eval acc {moe_result.eval_accuracy:.3f}  "
          f"params {moe.num_parameters()} "
          f"(same activated compute as dense)")

    trace = np.asarray(moe_result.capacity_traces[0])
    print("\nneeded capacity factor during training (Figure 1 shape):")
    for lo in range(0, len(trace), len(trace) // 6):
        chunk = trace[lo:lo + len(trace) // 6]
        bar = "#" * int(chunk.mean() * 8)
        print(f"  steps {lo:3d}+: mean f = {chunk.mean():5.2f}  {bar}")
    print(f"  peak f = {trace.max():.2f}, dynamic range "
          f"{trace.max() / trace.min():.2f}x "
          "(paper: up to 4.38x)")

    # Evaluate under reduced inference capacity, with and without BPR
    # (the Figure 25 effect).
    for bpr in (False, True):
        for layer in moe.moe_layers():
            layer.batch_prioritized = bpr
        moe.set_inference_capacity(0.25)
        acc = evaluate(moe, test)
        print(f"infer f=0.25 {'with' if bpr else 'without'} BPR: "
              f"acc {acc:.3f}")


if __name__ == "__main__":
    main()
