"""Order statistics and the paired-reference normaliser.

Pure functions over plain lists; no NumPy, no clocks.  ``run.py`` and
``compare.py`` both use these, and ``tests/test_stats.py`` pins them.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1), linearly interpolated.

    Refuses a tail the sample cannot support: fewer than
    :data:`MIN_TAIL_SAMPLES` samples beyond the percentile make it a
    statement about one or two outliers, not about the distribution.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(values)
    beyond = int(n * min(q, 1.0 - q) + 1e-9)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need >= {MIN_TAIL_SAMPLES}")
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def range_spread(values: Sequence[float]) -> float:
    """(max - min) / median."""
    return (max(values) - min(values)) / abs(median(values))


def rel_sd(values: Sequence[float]) -> float:
    """Population standard deviation over the mean."""
    return statistics.pstdev(values) / abs(statistics.fmean(values))


def block_ratios(walls_ns: Sequence[int], work: Sequence[float],
                 refs_ns: Sequence[int]) -> list[float]:
    """Per-block cost in units of the reference step.

    Block ``b`` ran between reference samples ``b`` and ``b + 1``, so
    ``refs_ns`` is one longer than ``walls_ns``.  ``ratio_b =
    (wall_b / work_b) / mean(ref_b, ref_b+1)``: seconds of program per
    unit of work, per second of reference, both seen by the same
    machine state.
    """
    if len(refs_ns) != len(walls_ns) + 1 or len(work) != len(walls_ns):
        raise ValueError(
            f"{len(walls_ns)} blocks need {len(walls_ns)} work counts and "
            f"{len(walls_ns) + 1} references, got {len(work)} and "
            f"{len(refs_ns)}")
    if not walls_ns:
        raise ValueError("no blocks")
    return [(wall / w) / ((refs_ns[b] + refs_ns[b + 1]) / 2.0)
            for b, (wall, w) in enumerate(zip(walls_ns, work))]


def normalised_rate(ratios: Sequence[float], ref_nominal_s: float) -> float:
    """Work per *reference-normalised* second from the block ratios.

    ``1 / (median_b(ratio_b) * ref_nominal_s)``: the rate this code
    would show on a machine whose reference step takes exactly
    ``ref_nominal_s``.  The median is over all blocks — rejecting
    blocks whose two references disagree was tried and made the figure
    noisier (README.md).
    """
    return 1.0 / (median(ratios) * ref_nominal_s)


def raw_rate(walls_ns: Sequence[int], work: Sequence[float]) -> float:
    """Work per wall-clock second, un-normalised (the machine control)."""
    return 1.0 / median([wall / 1e9 / w for wall, w in zip(walls_ns, work)])
