"""Order statistics and the normaliser — no wall-clock assertions."""

import random

import pytest

import stats


def test_percentile_refuses_unsupported_tail():
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(99)), 0.9)       # 9 samples beyond p90
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(99)), 0.1)       # lower tail too
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(500)), 0.99)
    assert stats.percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    assert stats.percentile(list(range(1000)), 0.99) == pytest.approx(989.01)


def test_percentile_interpolates_and_ignores_order():
    values = list(range(101))
    random.Random(1).shuffle(values)
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.8) == pytest.approx(80)
    with pytest.raises(ValueError):
        stats.percentile(values, 1.0)


def test_quartile_spread_matches_statistics_quantiles():
    import statistics
    values = [10.0, 10.2, 9.9, 10.4, 10.1, 9.8, 10.0, 10.3, 9.7, 10.6]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


def test_block_ratios_shape_checks():
    with pytest.raises(ValueError):
        stats.block_ratios([1, 2], [1, 1], [1, 1])           # one ref short
    with pytest.raises(ValueError):
        stats.block_ratios([], [], [1])
    assert stats.block_ratios([100, 300], [1, 2], [10, 10, 20]) == [
        pytest.approx(10.0), pytest.approx(10.0)]


def _synthetic_stream(blocks: int, seed: int):
    """Per-token costs, work counts and reference times of a quiet host."""
    rng = random.Random(seed)
    work = [rng.randint(2500, 4500) for _ in range(blocks)]
    cost_ns = [25_000 * rng.uniform(0.9, 1.1) for _ in range(blocks)]
    walls = [c * w for c, w in zip(cost_ns, work)]
    refs = [10_000_000.0] * (blocks + 1)
    return walls, work, refs


def test_normaliser_invariant_under_piecewise_drift():
    """A +-30 % piecewise machine drift that the reference sees too
    leaves tokens_per_s unchanged to 1e-9."""
    walls, work, refs = _synthetic_stream(180, seed=7)
    quiet = stats.normalised_rate(stats.block_ratios(walls, work, refs), 0.010)
    # Drift at every reference instant: segments at 1.3x, 0.7x, 1.0x, ...
    levels = [1.3, 0.7, 1.0, 1.25, 0.75]
    drift = [levels[(j // 23) % len(levels)] for j in range(len(refs))]
    drifted_refs = [r * d for r, d in zip(refs, drift)]
    # A block sees the mean state of the two instants that bracket it.
    drifted_walls = [w * (drift[b] + drift[b + 1]) / 2
                     for b, w in enumerate(walls)]
    noisy = stats.normalised_rate(
        stats.block_ratios(drifted_walls, work, drifted_refs), 0.010)
    assert noisy == pytest.approx(quiet, rel=1e-9)
    # ... while the raw rate moves with the machine.
    assert abs(stats.raw_rate(drifted_walls, work)
               / stats.raw_rate(walls, work) - 1) > 0.01


def test_normalised_rate_units():
    # 1 ms per token, reference exactly at its nominal: 1000 tokens/s.
    walls = [1_000_000 * 50] * 12
    ratios = stats.block_ratios(walls, [50] * 12, [7_000_000] * 13)
    assert stats.normalised_rate(ratios, 0.007) == pytest.approx(1000.0)
    # The same code on a machine twice as slow reads the same.
    slow = stats.block_ratios([2 * w for w in walls], [50] * 12,
                              [14_000_000] * 13)
    assert stats.normalised_rate(slow, 0.007) == pytest.approx(1000.0)
