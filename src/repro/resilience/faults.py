"""Deterministic, seeded fault plans for the performance substrate.

At the 2,048-4,096-GPU scale of the paper's evaluation, stragglers,
degraded links, and dying ranks are the norm rather than the exception,
yet an analytic cost model alone only knows a perfect cluster.  A
:class:`FaultPlan` makes failure a first-class simulation input: it is
a fully deterministic description of *when* and *where* the cluster
misbehaves, so makespan-under-faults becomes a measurable quantity that
two runs (or two strategies) can compare exactly.

Three fault families cover the common large-scale pathologies:

* :class:`StragglerWindow` — one GPU runs at a fraction of its nominal
  rate inside a time window (thermal throttling, noisy neighbour,
  background daemon);
* :class:`LinkDegradation` — communication-kind ops are slowed inside
  a window (flapping NIC, congested rail, cable re-train), optionally
  scoped to one GPU's links;
* :class:`OpFailure` — at a given simulated instant the op active on a
  ``(gpu, stream)`` dies and is *retried with timeout*: all progress is
  lost and the alpha-beta cost is re-charged after a detection timeout,
  exactly the semantics of an NCCL watchdog abort + retry.

Plans are hand-built (the chaos scenarios declare theirs), so a
scenario is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "StragglerWindow",
    "LinkDegradation",
    "OpFailure",
    "FaultPlan",
]

_COMM_KINDS = ("comm", "comm_memcpy")


@dataclass(frozen=True)
class StragglerWindow:
    """One GPU running at ``factor`` of its nominal rate in a window."""

    gpu: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if not 0.0 < self.factor:
            raise ValueError(f"factor must be > 0, got {self.factor}")
        if self.start < 0 or self.end < self.start:
            raise ValueError(
                f"need 0 <= start <= end, got [{self.start}, {self.end}]")

    def active(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class LinkDegradation:
    """Comm-kind ops slowed to ``factor`` of nominal rate in a window.

    ``gpu=None`` degrades every GPU's links (a fabric-wide event);
    otherwise only ops on that GPU's communication streams slow down.
    """

    start: float
    end: float
    factor: float
    gpu: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.factor:
            raise ValueError(f"factor must be > 0, got {self.factor}")
        if self.start < 0 or self.end < self.start:
            raise ValueError(
                f"need 0 <= start <= end, got [{self.start}, {self.end}]")

    def applies(self, gpu: int, kind: str, t: float) -> bool:
        return (kind in _COMM_KINDS
                and (self.gpu is None or self.gpu == gpu)
                and self.start <= t < self.end)


@dataclass(frozen=True)
class OpFailure:
    """Kill the op active on ``(gpu, stream)`` at a simulated instant.

    The victim loses all progress and re-runs from scratch after a
    detection ``timeout`` is charged (the alpha-beta cost re-charge).
    ``stream=None`` kills every op active on the GPU at that instant.
    A failure instant with no active victim is a no-op (the fault hit
    an idle resource) but is still counted as injected.
    """

    time: float
    gpu: int
    stream: str | None = None
    timeout: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0 or not math.isfinite(self.time):
            raise ValueError(f"time must be finite and >= 0, got {self.time}")
        if self.timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {self.timeout}")


@dataclass
class FaultPlan:
    """A deterministic collection of faults for one scenario.

    The plan is pure data — the simulator interprets it.  ``seed``
    records the scenario seed the plan belongs to, for reporting.  Expert
    death is not a plan fault: the scenario engine's
    :class:`repro.scenarios.spec.ExpertDeath` is that event.
    """

    stragglers: list[StragglerWindow] = field(default_factory=list)
    link_degradations: list[LinkDegradation] = field(default_factory=list)
    op_failures: list[OpFailure] = field(default_factory=list)
    seed: int | None = None

    # -- simulator queries ----------------------------------------------

    def empty(self) -> bool:
        return not (self.stragglers or self.link_degradations
                    or self.op_failures)

    def rate_scale(self, gpu: int, kind: str, t: float) -> float:
        """Multiplicative rate factor for an op of ``kind`` on ``gpu``
        at simulated time ``t`` (1.0 = nominal)."""
        scale = 1.0
        for w in self.stragglers:
            if w.gpu == gpu and w.active(t):
                scale *= w.factor
        for d in self.link_degradations:
            if d.applies(gpu, kind, t):
                scale *= d.factor
        return scale

    def boundaries(self) -> list[float]:
        """Sorted unique finite instants at which rates may change or a
        failure fires — the extra rate-change points the engine must
        stop at."""
        times: set[float] = set()
        for w in self.stragglers:
            times.add(w.start)
            if math.isfinite(w.end):
                times.add(w.end)
        for d in self.link_degradations:
            times.add(d.start)
            if math.isfinite(d.end):
                times.add(d.end)
        for f in self.op_failures:
            times.add(f.time)
        return sorted(times)

    def describe(self) -> str:
        parts = [f"{len(self.stragglers)} straggler(s)",
                 f"{len(self.link_degradations)} degraded link window(s)",
                 f"{len(self.op_failures)} op failure(s)"]
        tag = f" (seed={self.seed})" if self.seed is not None else ""
        return ", ".join(parts) + tag
