"""repro.resilience — fault injection, checkpoint/restore, recovery.

Tutel's premise is that MoE workloads are *dynamic* and the system
must adapt at runtime; at the 2,048-4,096-GPU scale of the paper's
evaluation, stragglers, degraded links, and dying ranks are routine.
This subsystem makes failure a first-class, *deterministic* input on
both substrates:

* :mod:`repro.resilience.faults` — seeded :class:`FaultPlan` objects
  (straggler windows, link degradation, op-failure instants, expert
  failures) consumed by :func:`repro.cluster.simulator.simulate`;
* :mod:`repro.resilience.checkpoint` — checkpoint/restore of model
  parameters, Adam state, RNG state, and training history, proven
  bit-identical to an uninterrupted run;
* :mod:`repro.resilience.recovery` — strategy re-selection after an
  expert-parallel rank failure, reusing the paper's switchable P1/P2
  parallelism as a recovery mechanism.

:mod:`repro.scenarios` plays seeded fault timelines over these pieces
(``repro scenario compound_faults`` is the end-to-end drill).
Everything emits ``repro.obs`` counters and trace events
(``fault.injected``, ``fault.recovered``, ``train.step_skipped``,
``ckpt.saved``) so recoveries are attributable to steps on the unified
timeline.
"""
