"""repro.serve — online MoE inference over the functional substrate.

Everything before this package exercised the *training* axis of the
reproduction; production MoE traffic is request-shaped.  The serving
engine closes that gap with end-to-end request observability:

* :mod:`repro.serve.arrivals` — seeded open-loop arrival processes
  (Poisson, bursty/MMPP, diurnal) producing integer-nanosecond request
  traces;
* :mod:`repro.serve.batcher` — the continuous-batch former (close on
  max batch size or max wait);
* :mod:`repro.serve.ledger` — the per-request latency ledger: every
  nanosecond of a request's life attributed to
  ``queue | batch_wait | gate | dispatch | expert_ffn | combine`` spans
  that sum *exactly* to the end-to-end latency (integer arithmetic),
  plus token-weighted per-batch cost attribution that sums exactly to
  each batch's stage walls;
* :mod:`repro.serve.engine` — the virtual-clock serving loop over a
  stack of real :class:`repro.nn.moe.MoE` layers, keeping the
  deterministic simulator-priced latency column and the measured
  wall-clock column side by side (HetuMoE's methodology);
* :mod:`repro.serve.workloads` — the named, committed workloads
  (``repro serve --list``);
* :mod:`repro.serve.report` — ``BENCH_serving.json`` for the
  ``repro regress`` gate.
"""
