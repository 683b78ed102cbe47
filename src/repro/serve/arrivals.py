"""Seeded open-loop arrival processes for the serving engine.

Requests arrive on a **virtual timeline measured in integer
nanoseconds** — the same integer timebase the latency ledger uses, so
queueing arithmetic is exact and every derived quantity (batch
composition, queue depth, modeled percentiles) is bit-identical across
runs and machines for a given seed.

Three generators cover the workload shapes the paper's adaptive
machinery exists for (Tutel Figure 1: the expert workload is dynamic):

* ``poisson`` — memoryless steady-state traffic (exponential
  inter-arrivals at a fixed rate);
* ``bursty`` — a two-state Markov-modulated Poisson process: ``off``
  periods at the base rate alternate with ``on`` bursts at the burst
  rate, with exponentially distributed dwell times;
* ``diurnal`` — a non-homogeneous Poisson process whose rate follows a
  raised-cosine day/night cycle, generated by thinning a homogeneous
  process at the peak rate.

All draws come from one ``numpy`` PCG64 generator seeded per trace, so
traces are open-loop (arrival times never depend on service times) and
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NS", "Request", "ArrivalSpec", "generate_arrivals"]

#: Nanoseconds per virtual second (the ledger's integer timebase).
NS = 1_000_000_000

_KINDS = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class Request:
    """One inference request on the virtual timeline.

    ``arrival_ns`` is the absolute arrival instant in integer
    nanoseconds; ``tokens`` the number of tokens the request carries
    (its batch share for cost attribution and the number of payload
    rows the engine draws for it).
    """

    request_id: int
    arrival_ns: int
    tokens: int

    def __post_init__(self) -> None:
        if self.arrival_ns < 0:
            raise ValueError(
                f"arrival_ns must be >= 0, got {self.arrival_ns}")
        if self.tokens < 1:
            raise ValueError(f"tokens must be >= 1, got {self.tokens}")


@dataclass(frozen=True)
class ArrivalSpec:
    """Parameters of one seeded arrival trace.

    ``rate`` is the steady/base rate in requests per virtual second;
    ``burst_rate``/``on_s``/``off_s`` shape the bursty MMPP;
    ``peak_rate``/``period_s`` shape the diurnal cycle.  Token counts
    per request are uniform over ``[min_tokens, max_tokens]``.
    """

    kind: str
    horizon_s: float
    rate: float
    burst_rate: float = 0.0
    on_s: float = 0.25
    off_s: float = 0.75
    peak_rate: float = 0.0
    period_s: float = 0.0
    min_tokens: int = 4
    max_tokens: int = 32

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"arrival kind must be one of {_KINDS}, got {self.kind!r}")
        for name in ("horizon_s", "rate", "burst_rate", "on_s", "off_s",
                     "peak_rate", "period_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.horizon_s <= 0:
            raise ValueError(
                f"horizon_s must be > 0, got {self.horizon_s}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise ValueError(
                f"need 1 <= min_tokens <= max_tokens, got "
                f"[{self.min_tokens}, {self.max_tokens}]")
        if self.kind == "bursty":
            if self.burst_rate <= self.rate:
                raise ValueError(
                    "bursty trace needs burst_rate > rate, got "
                    f"{self.burst_rate} <= {self.rate}")
            if self.on_s <= 0 or self.off_s <= 0:
                raise ValueError("on_s and off_s must be > 0")
        if self.kind == "diurnal":
            if self.peak_rate <= self.rate:
                raise ValueError(
                    "diurnal trace needs peak_rate > rate (base), got "
                    f"{self.peak_rate} <= {self.rate}")
            if self.period_s <= 0:
                raise ValueError("period_s must be > 0")

    def scaled(self, factor: float) -> "ArrivalSpec":
        """The same process over a shrunken horizon (``--fast``)."""
        if factor <= 0 or factor > 1:
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        from dataclasses import replace
        return replace(self, horizon_s=self.horizon_s * factor)


def _poisson_times(rng: np.random.Generator, rate: float,
                   start: float, end: float) -> np.ndarray:
    """Homogeneous Poisson arrival instants in ``[start, end)``: the
    left fold ``t += gap`` over exponential gaps, up to the first
    ``t >= end``, whose gap is drawn too.

    The count ``n`` comes from a fold over draws that are then taken
    back (the bit-generator state is restored); the ``n + 1`` gaps are
    then one draw.  Values and final state are bitwise those of ``n + 1``
    scalar draws: the generator fills arrays element by element, and
    ``cumsum`` is the same sequential fold.
    """
    scale = 1.0 / rate
    bits = rng.bit_generator
    saved = bits.state
    n, t = 0, start
    # The expected count with room to spare: one chunk almost always.
    size = int(rate * (end - start) * 1.25) + 8
    while True:
        fold = np.cumsum(np.concatenate(([t], rng.exponential(scale, size))))
        k = int(np.searchsorted(fold[1:], end))  # first fold >= end
        n += k
        if k < size:
            break
        t = fold[-1]
    bits.state = saved
    return np.cumsum(np.concatenate(([start],
                                     rng.exponential(scale, n + 1))))[1:-1]


def _diurnal_rate(spec: ArrivalSpec, t: float) -> float:
    """Raised-cosine rate: base at t=0, peak half a period later."""
    phase = 2.0 * math.pi * t / spec.period_s
    return (spec.rate + (spec.peak_rate - spec.rate)
            * 0.5 * (1.0 - math.cos(phase)))


def _arrival_seconds(spec: ArrivalSpec,
                     rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "poisson":
        return _poisson_times(rng, spec.rate, 0.0, spec.horizon_s)
    if spec.kind == "bursty":
        segments = []
        t, on = 0.0, False
        while t < spec.horizon_s:
            dwell = rng.exponential(spec.on_s if on else spec.off_s)
            end = min(t + dwell, spec.horizon_s)
            rate = spec.burst_rate if on else spec.rate
            segments.append(_poisson_times(rng, rate, t, end))
            t, on = end, not on
        return np.concatenate(segments)
    # diurnal: thinning at the peak rate, one uniform per candidate.
    times = _poisson_times(rng, spec.peak_rate, 0.0, spec.horizon_s)
    keep = [u < _diurnal_rate(spec, t) / spec.peak_rate
            for t, u in zip(times.tolist(), rng.random(times.size).tolist())]
    return times[np.array(keep, dtype=bool)]


def generate_arrivals(spec: ArrivalSpec, seed: int) -> list[Request]:
    """The full seeded request trace of one workload run.

    Arrival instants are quantized to integer nanoseconds (ties keep
    their generation order, so the trace stays strictly sorted by
    ``(arrival_ns, request_id)``).  Each request's token count comes
    from the same generator, so the whole trace is one deterministic
    function of ``(spec, seed)``.
    """
    rng = np.random.default_rng(seed)
    seconds = _arrival_seconds(spec, rng)
    # Per request (tokens, the retired payload seed), one pair at a
    # time in generation order: the seed is still drawn so traces keep
    # their bits.
    draws = rng.integers([spec.min_tokens, 0],
                         [spec.max_tokens + 1, 2**31 - 1],
                         size=(seconds.size, 2))
    arrival_ns = np.rint(seconds * NS).astype(np.int64)
    return [Request(request_id=i, arrival_ns=ns, tokens=tokens)
            for i, (ns, tokens) in enumerate(zip(arrival_ns.tolist(),
                                                 draws[:, 0].tolist()))]
