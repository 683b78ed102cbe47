"""The named serving workloads (`repro serve --list`).

Each workload pairs a seeded arrival trace with a small real MoE stack
and an SLO contract.  The four committed shapes cover the dynamic-
workload axis Tutel's Figure 1 motivates:

* ``poisson_steady`` — memoryless traffic at ~50% utilization, the
  baseline the tail-latency bounds are calibrated on;
* ``bursty_spike`` — MMPP on/off bursts that transiently overload the
  server, so queueing (not service) dominates the p99;
* ``diurnal_cycle`` — a raised-cosine day/night rate sweep whose peak
  exceeds capacity (the Tutel Figure 1 mapping in EXPERIMENTS.md);
* ``brownout_surge`` — steady traffic through a
  :class:`repro.scenarios.spec.LinkBrownout` window (the chaos-
  scenario fault reused under live traffic): the serving fabric is
  derated to ``factor`` of nominal bandwidth during ``[step,
  end_step)`` **virtual seconds**, so dispatch/combine pricing
  inflates and the queue builds until the window closes.

SLO bounds on the modeled column are deterministic, so they are exact
CI contracts; the measured-column bounds are generous (wall-clock
noise stays out of the determinism story, HetuMoE-style).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.scenarios.spec import LinkBrownout
from repro.serve.arrivals import ArrivalSpec

__all__ = ["ServeSLO", "ServeWorkload", "WORKLOADS", "get_workload"]


@dataclass(frozen=True)
class ServeSLO:
    """The workload's latency/goodput contract.

    ``p99_ms`` bounds the modeled p99 latency and ``min_goodput_rps``
    the modeled goodput (requests finishing within ``deadline_ms``,
    per second of makespan) — both deterministic, gated exactly.
    ``measured_p99_ms`` optionally bounds the wall-clock p99; it is
    marked measured and stays out of the regression gate.
    """

    p99_ms: float
    min_goodput_rps: float
    deadline_ms: float
    measured_p99_ms: float | None = None

    def __post_init__(self) -> None:
        if self.p99_ms <= 0 or self.deadline_ms <= 0:
            raise ValueError("p99_ms and deadline_ms must be > 0")
        if self.min_goodput_rps < 0:
            raise ValueError("min_goodput_rps must be >= 0")


@dataclass(frozen=True)
class ServeWorkload:
    """One named serving experiment: trace + model + batcher + SLO."""

    name: str
    title: str
    arrival: ArrivalSpec
    slo: ServeSLO
    seed: int = 0
    # The served model: a stack of pure MoE layers, so every modeled
    # nanosecond of service maps onto an instrumented MoE stage.
    num_layers: int = 2
    model_dim: int = 32
    hidden_dim: int = 64
    num_experts: int = 8
    top_k: int = 2
    capacity_factor: float = 1.25
    # Continuous-batching policy.
    max_batch_size: int = 8
    max_wait_ms: float = 10.0
    # Optional fabric fault window, in *virtual seconds* of the trace.
    brownout: LinkBrownout | None = None
    # --fast shrinks the arrival horizon by this factor.
    fast_factor: float = 0.25

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError(
                f"num_layers must be >= 1, got {self.num_layers}")
        if not 0.0 < self.fast_factor <= 1.0:
            raise ValueError(
                f"fast_factor must be in (0, 1], got {self.fast_factor}")
        if not 0 <= self.max_wait_ms < math.inf:
            raise ValueError(f"max_wait_ms must be finite and >= 0, "
                             f"got {self.max_wait_ms}")
        # The modeled column prices a fixed capacity, so the adaptive
        # modes (capacity_factor <= 0) have no price here.
        if not 0 < self.capacity_factor < math.inf:
            raise ValueError(f"capacity_factor must be finite and > 0, "
                             f"got {self.capacity_factor}")
        if not 1 <= self.top_k <= self.num_experts:
            raise ValueError(f"top_k must be in [1, {self.num_experts}], "
                             f"got {self.top_k}")

    def resolved(self, fast: bool = False,
                 seed: int | None = None) -> "ServeWorkload":
        """The workload with ``--fast``/``--seed`` overrides applied."""
        wl = self
        if seed is not None:
            wl = replace(wl, seed=seed)
        if fast:
            wl = replace(wl, arrival=wl.arrival.scaled(wl.fast_factor))
        return wl


WORKLOADS: dict[str, ServeWorkload] = {}


def _register(wl: ServeWorkload) -> ServeWorkload:
    if wl.name in WORKLOADS:
        raise ValueError(f"duplicate workload {wl.name!r}")
    WORKLOADS[wl.name] = wl
    return wl


def get_workload(name: str) -> ServeWorkload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from "
            f"{sorted(WORKLOADS)}") from None


_register(ServeWorkload(
    name="poisson_steady",
    title="Memoryless steady-state traffic at ~50% utilization",
    arrival=ArrivalSpec(kind="poisson", horizon_s=4.0, rate=200.0),
    slo=ServeSLO(p99_ms=80.0, min_goodput_rps=150.0,
                 deadline_ms=80.0, measured_p99_ms=2000.0),
))

_register(ServeWorkload(
    name="bursty_spike",
    title="MMPP on/off bursts transiently overloading the server",
    arrival=ArrivalSpec(kind="bursty", horizon_s=4.0, rate=100.0,
                        burst_rate=600.0, on_s=0.3, off_s=0.7),
    slo=ServeSLO(p99_ms=400.0, min_goodput_rps=100.0,
                 deadline_ms=250.0, measured_p99_ms=2000.0),
))

_register(ServeWorkload(
    name="diurnal_cycle",
    title="Raised-cosine day/night sweep past the capacity knee",
    arrival=ArrivalSpec(kind="diurnal", horizon_s=4.0, rate=60.0,
                        peak_rate=500.0, period_s=2.0),
    slo=ServeSLO(p99_ms=400.0, min_goodput_rps=80.0,
                 deadline_ms=250.0, measured_p99_ms=2000.0),
    max_batch_size=16,
))

_register(ServeWorkload(
    name="brownout_surge",
    title="Steady traffic through a serving-fabric brownout window",
    arrival=ArrivalSpec(kind="poisson", horizon_s=4.0, rate=250.0),
    slo=ServeSLO(p99_ms=600.0, min_goodput_rps=120.0,
                 deadline_ms=300.0, measured_p99_ms=2000.0),
    brownout=LinkBrownout(step=1, end_step=2, factor=0.25),
    # Keep the fast horizon at 2.5 s so the [1, 2) s brownout window
    # both opens *and clears* inside the trace under --fast.
    fast_factor=0.625,
))
