"""Online pipelining strategy search (paper Algorithm 2).

The capacity factor ``f`` observed at runtime varies over a large
floating-point domain (Figure 1), so trying every strategy at every
distinct ``f`` would never converge.  The algorithm exploits one
intuition: *close* capacity factors have similar workload shapes and
share an optimal strategy.  Known ``f`` values are grouped into buckets
of numeric width ``L``; measurements are shared bucket-wide (normalized
by the lowest ``f`` in the bucket, since the segment time is roughly
proportional to the workload), and each bucket explores every strategy
exactly once before settling on its best.

Complexities match the paper: O(1) for a known ``f`` (hash lookup),
O(log M) to place a new ``f`` among M buckets, O(N log N) worst case
when buckets are rebuilt over N known factors.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.obs import CAT_PIPELINE, get_observer, get_run
from repro.pipeline.schedule import PipelineStrategy, all_strategies

__all__ = [
    "MAX_BUCKET_SAMPLES",
    "Bucket",
    "OnlinePipeliningSearch",
]


MAX_BUCKET_SAMPLES = 9
"""Sliding-window size of per-strategy samples kept in each bucket.

Odd so the median is always an observed value; large enough that a
couple of straggler-inflated (or glitch-deflated) measurements cannot
move it, small enough that the statistic tracks a drifting workload."""


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass
class Bucket:
    """A contiguous range of capacity factors sharing strategy data.

    Each strategy keeps a bounded window of normalized samples and is
    scored by their **median**: a min-keeping memo is robust to slow
    outliers (stragglers) but permanently locks in a spuriously-fast
    glitch, while the median discounts both tails — the property the
    resilience path needs when fault-injected steps feed the search.
    """

    low: float
    length: float
    members: list[float] = field(default_factory=list)
    samples: dict[PipelineStrategy, list[float]] = field(
        default_factory=dict)

    def contains(self, f: float) -> bool:
        return self.low <= f < self.low + self.length

    def record(self, strategy: PipelineStrategy, f: float,
               elapsed: float) -> None:
        """Fold a measurement normalized to the bucket's lowest f.

        Segment time grows roughly linearly with workload, so dividing
        by ``f / low`` makes measurements at different factors
        comparable within the bucket.
        """
        normalized = elapsed * (self.low / f)
        window = self.samples.setdefault(strategy, [])
        window.append(normalized)
        if len(window) > MAX_BUCKET_SAMPLES:
            del window[0]

    def score(self, strategy: PipelineStrategy) -> float:
        """Median of the strategy's sample window (robust statistic)."""
        window = self.samples.get(strategy)
        if not window:
            raise KeyError(f"no samples for {strategy}")
        return _median(window)

    def best_strategy(self) -> PipelineStrategy:
        if not self.samples:
            raise ValueError("bucket has no measurements yet")
        return min(self.samples, key=self.score)


@dataclass
class OnlinePipeliningSearch:
    """The GETSTRATEGY / OPTIMIZESTRATEGY pair of Algorithm 2."""

    bucket_length: float = 1.0
    strategies: list[PipelineStrategy] = field(
        default_factory=all_strategies)
    per_factor: dict[float, dict[PipelineStrategy, float]] = field(
        default_factory=dict)
    buckets: list[Bucket] = field(default_factory=list)
    known_factors: list[float] = field(default_factory=list)
    # Last strategy chosen per bucket (keyed by bucket low), so step()
    # can flag switches as observability events.
    last_choice: dict[float, PipelineStrategy] = field(
        default_factory=dict)

    def __post_init__(self) -> None:
        if self.bucket_length <= 0:
            raise ValueError(
                f"bucket_length must be > 0, got {self.bucket_length}")
        if not self.strategies:
            raise ValueError("strategy space must be non-empty")

    # -- bucket maintenance (RECOMPUTEBUCKETS) -------------------------

    def _rebuild_buckets(self) -> None:
        """Greedy re-bucketing over the sorted known factors.

        A bucket starts at its lowest member and absorbs factors until
        one falls outside ``[low, low + L)``; measurements are rebuilt
        from the per-factor memos of the members.
        """
        self.buckets = []
        current: Bucket | None = None
        for f in self.known_factors:
            if current is None or not current.contains(f):
                current = Bucket(low=f, length=self.bucket_length)
                self.buckets.append(current)
            current.members.append(f)
            for strategy, elapsed in self.per_factor.get(f, {}).items():
                current.record(strategy, f, elapsed)
        ob = get_observer()
        if ob is not None:
            ob.count("pipeline.bucket_rebuilds")
            ob.gauge("pipeline.num_buckets", len(self.buckets))
            ob.gauge("pipeline.known_factors", len(self.known_factors))

    def _bucket_of(self, f: float) -> Bucket:
        """Binary search for the bucket containing ``f``."""
        lows = [b.low for b in self.buckets]
        idx = bisect.bisect_right(lows, f) - 1
        if idx < 0 or not self.buckets[idx].contains(f):
            raise KeyError(f"capacity factor {f} not in any bucket")
        return self.buckets[idx]

    def _ensure_known(self, capacity_factor: float) -> float:
        """Validate a factor and make it known; return it as a float.

        The check runs before any state changes, so a rejected factor
        leaves ``known_factors`` and ``buckets`` as they were.
        """
        f = float(capacity_factor)
        if not (math.isfinite(f) and f > 0):
            raise ValueError(
                f"capacity_factor must be finite and > 0, "
                f"got {capacity_factor}")
        if f not in self.per_factor:
            self.per_factor[f] = {}
            bisect.insort(self.known_factors, f)
            self._rebuild_buckets()
        return f

    # -- Algorithm 2 procedures ----------------------------------------

    def get_strategy(self, capacity_factor: float) -> PipelineStrategy:
        """GETSTRATEGY: best known, else an untried bucket strategy."""
        f = self._ensure_known(capacity_factor)
        tried_here = self.per_factor[f]
        if len(tried_here) == len(self.strategies):
            return min(tried_here, key=tried_here.__getitem__)
        bucket = self._bucket_of(f)
        ob = get_observer()
        for strategy in self.strategies:
            if strategy not in bucket.samples:
                # Bucket exploration: this factor's bucket still has
                # untried strategies, so the step pays a measurement.
                if ob is not None:
                    ob.instant("explore", CAT_PIPELINE, args={
                        "f": f, "bucket_low": bucket.low,
                        "strategy": strategy.describe(),
                        "remaining": (len(self.strategies)
                                      - len(bucket.samples))})
                return strategy
        if ob is not None:
            ob.count("pipeline.bucket_hits")
        return bucket.best_strategy()

    def optimize_strategy(self, capacity_factor: float,
                          strategy: PipelineStrategy,
                          measured_time: float) -> None:
        """OPTIMIZESTRATEGY: fold a measurement into both memo levels.

        A non-finite or negative time is rejected before any state
        changes: a stored ``nan`` would never lose a ``<`` comparison
        and so would pin that strategy's memo for good.
        """
        if not (math.isfinite(measured_time) and measured_time >= 0):
            raise ValueError(
                f"measured_time must be finite and >= 0, "
                f"got {measured_time}")
        f = self._ensure_known(capacity_factor)
        memo = self.per_factor[f]
        if strategy not in memo or measured_time < memo[strategy]:
            memo[strategy] = measured_time
        self._bucket_of(f).record(strategy, f, measured_time)
        ob = get_observer()
        if ob is not None:
            ob.count("pipeline.measurements")
            ob.registry.histogram(
                "pipeline.measured_time").observe(measured_time)

    def step(self, capacity_factor: float,
             measure: Callable[[PipelineStrategy], float]
             ) -> tuple[PipelineStrategy, float]:
        """MOESTEPANDOPTIMIZESTRATEGY: pick, run, learn.

        ``measure`` runs the MoE segment under the given strategy and
        returns its elapsed time (in the reproduction, a simulator
        call; on hardware, a CUDA-event timing).
        """
        strategy = self.get_strategy(capacity_factor)
        bucket_low = self._bucket_of(float(capacity_factor)).low
        previous = self.last_choice.get(bucket_low)
        if previous is not None and previous != strategy:
            # The adaptive runtime changed its mind for this workload
            # band — the Figure 5 event the run timeline plots.
            switch = {"f": float(capacity_factor),
                      "bucket_low": bucket_low,
                      "from": previous.describe(),
                      "to": strategy.describe()}
            ob = get_observer()
            if ob is not None:
                ob.instant("strategy_switch", CAT_PIPELINE, args=switch)
            run = get_run()
            if run is not None:
                run.emit("strategy_switch", data=switch)
        self.last_choice[bucket_low] = strategy
        elapsed = measure(strategy)
        self.optimize_strategy(capacity_factor, strategy, elapsed)
        return strategy, elapsed
