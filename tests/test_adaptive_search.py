"""Tests for the online pipelining strategy search (Algorithm 2)."""

import pytest

from repro.collectives.schedule import A2AAlgorithm
from repro.pipeline.adaptive import Bucket, OnlinePipeliningSearch
from repro.pipeline.schedule import PipelineStrategy, all_strategies


def oracle(best: PipelineStrategy, f: float = 1.0):
    """Measurement function: the designated strategy is fastest.

    Times scale with the capacity factor ``f`` — the workload
    proportionality Algorithm 2's bucket normalization relies on.
    """
    def measure(strategy: PipelineStrategy) -> float:
        base = 1.0 if strategy == best else 2.0 + strategy.degree * 0.1
        return base * f
    return measure


class TestBucket:
    def test_contains_half_open(self):
        b = Bucket(low=1.0, length=1.0)
        assert b.contains(1.0)
        assert b.contains(1.999)
        assert not b.contains(2.0)

    def test_record_normalizes_by_low(self):
        b = Bucket(low=2.0, length=1.0)
        s = PipelineStrategy(degree=1)
        b.record(s, 4.0, 10.0)  # f twice the low -> halved
        assert b.score(s) == pytest.approx(5.0)

    def test_record_scores_by_median(self):
        b = Bucket(low=1.0, length=1.0)
        s = PipelineStrategy(degree=1)
        b.record(s, 1.0, 5.0)
        b.record(s, 1.0, 3.0)
        b.record(s, 1.0, 9.0)
        assert b.score(s) == 5.0

    def test_median_resists_fast_glitch(self):
        # A min-keeping memo would lock in the one spuriously-fast
        # sample of the bad strategy and prefer it forever; the median
        # keeps the honest ranking.
        b = Bucket(low=1.0, length=1.0)
        good = PipelineStrategy(degree=1)
        bad = PipelineStrategy(degree=2)
        for t in (1.0, 1.0, 1.0):
            b.record(good, 1.0, t)
        for t in (2.0, 2.0, 0.1):  # one glitch-deflated sample
            b.record(bad, 1.0, t)
        assert b.score(bad) == 2.0
        assert b.best_strategy() == good

    def test_median_resists_straggler_outlier(self):
        # One straggler-inflated sample must not dethrone the winner.
        b = Bucket(low=1.0, length=1.0)
        good = PipelineStrategy(degree=1)
        other = PipelineStrategy(degree=2)
        for t in (1.0, 5.0, 1.0):  # middle step hit by a straggler
            b.record(good, 1.0, t)
        for t in (1.5, 1.5, 1.5):
            b.record(other, 1.0, t)
        assert b.score(good) == 1.0
        assert b.best_strategy() == good

    def test_sample_window_is_bounded(self):
        from repro.pipeline.adaptive import MAX_BUCKET_SAMPLES
        b = Bucket(low=1.0, length=1.0)
        s = PipelineStrategy(degree=1)
        for i in range(3 * MAX_BUCKET_SAMPLES):
            b.record(s, 1.0, float(i))
        assert len(b.samples[s]) == MAX_BUCKET_SAMPLES

    def test_best_requires_data(self):
        with pytest.raises(ValueError):
            Bucket(low=1.0, length=1.0).best_strategy()


class TestSearch:
    def test_explores_every_strategy_once_per_bucket(self):
        search = OnlinePipeliningSearch(bucket_length=1.0)
        best = PipelineStrategy(degree=4, algorithm=A2AAlgorithm.TWO_DH)
        tried = []
        for _ in range(len(all_strategies())):
            strategy, _ = search.step(1.2, oracle(best))
            tried.append(strategy)
        assert len(set(tried)) == len(all_strategies())

    def test_converges_to_best(self):
        search = OnlinePipeliningSearch(bucket_length=1.0)
        best = PipelineStrategy(degree=2, algorithm=A2AAlgorithm.LINEAR)
        for _ in range(len(all_strategies())):
            search.step(1.2, oracle(best))
        # After exploration, the search sticks to the winner.
        for _ in range(5):
            strategy, _ = search.step(1.2, oracle(best))
            assert strategy == best

    def test_nearby_factors_share_bucket_knowledge(self):
        search = OnlinePipeliningSearch(bucket_length=1.0)
        best = PipelineStrategy(degree=8, algorithm=A2AAlgorithm.TWO_DH)
        for _ in range(len(all_strategies())):
            search.step(1.2, oracle(best))
        # A close-by factor (same bucket) inherits the best strategy
        # without re-exploring.
        strategy = search.get_strategy(1.5)
        assert strategy == best

    def test_distant_factor_explores_fresh(self):
        search = OnlinePipeliningSearch(bucket_length=1.0)
        best = PipelineStrategy(degree=1)
        for _ in range(len(all_strategies())):
            search.step(1.2, oracle(best))
        # Another bucket: every strategy is measured again, in order.
        assert [search.step(9.0, oracle(best))[0]
                for _ in range(len(all_strategies()))] == search.strategies

    def test_bucket_rebuild_preserves_measurements(self):
        search = OnlinePipeliningSearch(bucket_length=1.0)
        best = PipelineStrategy(degree=1)
        for _ in range(3):
            search.step(2.0, oracle(best))
        n_before = sum(len(b.samples) for b in search.buckets)
        # Inserting a lower factor re-anchors the buckets.
        search.step(1.5, oracle(best))
        merged = search._bucket_of(2.0)
        assert merged.contains(1.5)
        assert sum(len(b.samples) for b in search.buckets) >= n_before

    def test_per_factor_memo_takes_priority(self):
        search = OnlinePipeliningSearch(
            bucket_length=1.0, strategies=all_strategies()[:2])
        s0, s1 = search.strategies
        # Bucket-level data says s0; factor-level data says s1.
        search.optimize_strategy(1.0, s0, 1.0)
        search.optimize_strategy(1.0, s1, 2.0)
        search.optimize_strategy(1.4, s0, 10.0)
        search.optimize_strategy(1.4, s1, 1.0)
        assert search.get_strategy(1.4) == s1

    def test_known_factor_lookup_is_constant_work(self):
        search = OnlinePipeliningSearch(bucket_length=1.0)
        best = PipelineStrategy(degree=1)
        for _ in range(len(all_strategies())):
            search.step(3.0, oracle(best))
        buckets_before = len(search.buckets)
        search.get_strategy(3.0)
        assert len(search.buckets) == buckets_before

    def test_rejects_bad_inputs(self):
        search = OnlinePipeliningSearch()
        with pytest.raises(ValueError):
            search.get_strategy(0.0)
        with pytest.raises(ValueError):
            search.optimize_strategy(1.0, PipelineStrategy(1), -1.0)
        with pytest.raises(ValueError):
            OnlinePipeliningSearch(bucket_length=0.0)
        with pytest.raises(ValueError):
            OnlinePipeliningSearch(strategies=[])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"),
                                     float("inf")])
    def test_invalid_factor_leaves_no_state(self, bad):
        search = OnlinePipeliningSearch(bucket_length=0.5)
        search.optimize_strategy(3.0, PipelineStrategy(1), 1.0)
        known = list(search.known_factors)
        lows = [b.low for b in search.buckets]
        with pytest.raises(ValueError):
            search.get_strategy(bad)
        with pytest.raises(ValueError):
            search.optimize_strategy(bad, PipelineStrategy(1), 1.0)
        assert search.known_factors == known
        assert [b.low for b in search.buckets] == lows

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf"), -1.0])
    def test_invalid_measurement_leaves_no_state(self, bad):
        search = OnlinePipeliningSearch(bucket_length=0.5)
        s1 = PipelineStrategy(1)
        search.optimize_strategy(3.0, s1, 2.0)
        memo = {f: dict(m) for f, m in search.per_factor.items()}
        samples = [{s: list(w) for s, w in b.samples.items()}
                   for b in search.buckets]
        known = list(search.known_factors)
        for f in (3.0, 1.0):            # a known and an unseen factor
            with pytest.raises(ValueError, match="measured_time"):
                search.optimize_strategy(f, s1, bad)
        assert search.per_factor == memo
        assert [{s: list(w) for s, w in b.samples.items()}
                for b in search.buckets] == samples
        assert search.known_factors == known

    def test_nan_measurement_cannot_pin_the_memo(self):
        # A stored nan used to survive every later `<` comparison.
        search = OnlinePipeliningSearch()
        s1 = PipelineStrategy(1)
        with pytest.raises(ValueError):
            search.optimize_strategy(1.0, s1, float("nan"))
        search.optimize_strategy(1.0, s1, 1.0)
        assert search.per_factor[1.0][s1] == 1.0

    def test_rejected_nan_keeps_bucket_sharing(self):
        # A stored nan used to give 3.2 a bucket of its own beside 3.0.
        search = OnlinePipeliningSearch(bucket_length=0.5)
        search.optimize_strategy(3.0, PipelineStrategy(1), 1.0)
        with pytest.raises(ValueError):
            search.get_strategy(float("nan"))
        search.get_strategy(3.2)
        assert search._bucket_of(3.2) is search._bucket_of(3.0)

    def test_regret_vanishes_on_repeated_stream(self):
        # First pass over a dynamic-factor stream pays exploration;
        # replaying the same stream (buckets now stable and fully
        # explored) must always pick the oracle best.
        import numpy as np
        search = OnlinePipeliningSearch(bucket_length=2.0)
        best = PipelineStrategy(degree=4, algorithm=A2AAlgorithm.TWO_DH)
        rng = np.random.default_rng(0)
        factors = [float(f) for f in rng.uniform(1.0, 8.0, 120)]

        def run_pass():
            regret = 0
            for f in factors:
                strategy, _ = search.step(f, oracle(best, f))
                regret += int(strategy != best)
            return regret

        first = run_pass()
        # Total exploration is bounded by (#buckets * #strategies); a
        # few more passes must fully drain it.
        for _ in range(8):
            replay = run_pass()
            if replay == 0:
                break
        assert first > replay
        assert replay == 0
