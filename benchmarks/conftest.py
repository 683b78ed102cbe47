"""Shared configuration for the benchmark suite.

Every ``bench_*.py`` regenerates one table or figure from the paper.
Each file exposes ``run(verbose=True)`` — runnable standalone via
``python benchmarks/bench_xxx.py`` — plus a pytest-benchmark entry that
executes it exactly once (the workloads are deterministic models and
sweeps, not microsecond kernels, so statistical repetition only wastes
time; the real-timing Figure 24 bench is the exception and uses proper
rounds).

Set ``REPRO_SCALE=full`` to run the accuracy experiments at a larger
scale (tighter error bars, minutes instead of seconds).

Set ``REPRO_TRACE=/path/trace.json`` to run the whole bench session
under the :mod:`repro.obs` observer and dump a Chrome-trace JSON at
session end — every instrumented span in the MoE layers, trainer,
collectives, strategy search, and simulator lands in one unified
timeline.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def obs_session_trace():
    """Record the bench session into REPRO_TRACE, when set."""
    path = os.environ.get("REPRO_TRACE")
    if not path:
        yield
        return
    from repro import obs
    ob = obs.enable()
    try:
        yield
        assert ob.recorder is not None
        ob.recorder.dump_chrome_trace(path)
        print(f"\n[obs] wrote {len(ob.recorder.events)} trace events "
              f"to {path}")
    finally:
        obs.disable()


def accuracy_scale():
    """Experiment scale for the training-based benches."""
    from repro.train.experiments import ExperimentScale
    if os.environ.get("REPRO_SCALE") == "full":
        return ExperimentScale(steps=800)
    return ExperimentScale(steps=250)


@pytest.fixture
def once(benchmark):
    """Run a deterministic sweep exactly once under pytest-benchmark."""
    def _run(fn, **kwargs):
        return benchmark.pedantic(fn, kwargs=kwargs, rounds=1,
                                  iterations=1)
    return _run
