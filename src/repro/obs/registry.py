"""Process-wide metrics: counters, gauges, and histogram timers.

The quantitative half of :mod:`repro.obs`.  A :class:`MetricsRegistry`
owns named instruments created on first use:

* :class:`Counter` — monotonically increasing totals (steps run,
  tokens dropped, buckets rebuilt);
* :class:`Gauge` — last-written values (current loss, current needed
  capacity factor);
* :class:`Histogram` — accumulated distributions, the backing store of
  every ``span(...)`` measurement (count / total / min / max / mean
  plus reservoir-sampled p50/p95/p99, in seconds for timers).

Instruments are plain attribute-update objects — no locks, no label
cartesian products — because the substrate is single-process NumPy and
the hot path must stay cheap even when observability is enabled.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "RESERVOIR_SIZE", "SUMMARY_KEYS"]

#: Number of samples each histogram keeps for quantile estimation.
RESERVOIR_SIZE = 256

#: The contract of :meth:`Histogram.summary`: every key below is
#: present in every summary — including ``count: 0`` on a cold
#: instrument — so aggregating consumers (the profiler, a run's
#: ``metrics.json``) never need to guard against missing keys.
SUMMARY_KEYS = ("empty", "count", "total", "mean", "min", "max",
                "p50", "p95", "p99")


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, "
                             f"got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins value."""

    name: str
    value: float = 0.0
    updates: int = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1


@dataclass
class Histogram:
    """A streaming distribution summary (no bucket boundaries needed).

    Timers observe durations in seconds; anything else can observe any
    non-negative or negative float.  Besides the running aggregates, a
    fixed-size uniform reservoir (Vitter's Algorithm R) of at most
    :data:`RESERVOIR_SIZE` samples backs the p50/p95/p99 estimates, so
    memory stays O(1) per instrument regardless of observation count.
    The reservoir's RNG is seeded from the instrument name, so
    identical observation sequences always produce identical quantiles
    — no global random state is consumed.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    _reservoir: list[float] = field(default_factory=list, repr=False)
    _rng: random.Random = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self._rng = random.Random(zlib.crc32(self.name.encode("utf-8")))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_SIZE:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Reservoir-estimated quantile ``q`` in [0, 1].

        Exact while ``count <= RESERVOIR_SIZE``; a uniform-sample
        estimate beyond that.  Linear interpolation between order
        statistics; 0.0 when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        pos = q * (len(ordered) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        if lo == hi:
            return ordered[lo]
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> dict[str, float | bool]:
        """Aggregate dump; every :data:`SUMMARY_KEYS` field is a
        defined finite value even with zero observations — ``count`` is
        emitted as 0 on a cold instrument, and ``empty`` flags that
        case so consumers can tell a true 0.0 from "nothing was
        observed"."""
        out = {
            "empty": self.count == 0,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }
        assert tuple(out) == SUMMARY_KEYS
        return out


@dataclass
class MetricsRegistry:
    """Create-on-first-use registry of named instruments."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = Histogram(name)
        return inst

    def snapshot(self) -> dict[str, dict]:
        """Plain-dict dump of every instrument (JSON-serializable)."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.summary()
                           for n, h in sorted(self.histograms.items())},
        }
