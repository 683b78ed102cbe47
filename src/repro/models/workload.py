"""Dynamic MoE workload traces and the typical-settings grid.

Two generators back the evaluation:

* :func:`dynamic_capacity_trace` produces per-iteration *needed
  capacity factors* resembling paper Figure 1: routing is most uneven
  early in training (needed ``f`` spikes up to ~4.4x), relaxes as the
  gate learns, stays noisy throughout, and differs per layer — deeper
  MoE layers route less evenly.
* :func:`typical_settings` enumerates the 243-model grid of Table 6
  (3 choices each of samples/step, tokens/sample, M, V and local
  experts) used by the adaptive-pipelining evaluation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.config import MoEConfig

__all__ = [
    "dynamic_capacity_trace",
    "TYPICAL_SETTINGS_AXES",
    "typical_settings",
    "sample_capacity_factors",
]


#: Layers in a Figure 1 model, and the needed factor its warm-up starts at.
TRACE_LAYERS = 10
TRACE_PEAK = 4.4


def dynamic_capacity_trace(steps: int, layer_index: int = 0,
                           seed: int = 0) -> np.ndarray:
    """Needed capacity factor per training iteration (Figure 1 shape).

    The trace is ``base + transient + noise``: a warm-up transient that
    decays over the first ~20% of training from ``TRACE_PEAK`` toward the
    steady level, multiplicative log-normal noise, and occasional
    routing-collapse spikes.  ``layer_index`` shifts the steady level
    (later layers in the paper's traces run hotter).

    Returns an array of needed ``f >= 1`` values.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 0 <= layer_index < TRACE_LAYERS:
        raise ValueError(f"layer_index must be in [0, {TRACE_LAYERS}), "
                         f"got {layer_index}")
    rng = np.random.default_rng(seed + 7919 * layer_index)
    t = np.arange(steps) / max(steps - 1, 1)

    depth = layer_index / (TRACE_LAYERS - 1)
    steady = 1.15 + 0.8 * depth
    warmup = (TRACE_PEAK - steady) * np.exp(-t / 0.08)
    noise = np.exp(rng.normal(0.0, 0.10, steps))
    spikes = (rng.random(steps) < 0.02) * rng.uniform(0.5, 1.5, steps)
    trace = (steady + warmup) * noise + spikes
    return np.maximum(trace, 1.0)


TYPICAL_SETTINGS_AXES: dict[str, tuple] = {
    "samples_per_step": (8, 16, 32),
    "tokens_per_sample": (512, 1024, 2048),
    "model_dim": (1024, 2048, 4096),
    "hidden_dim": (1024, 2048, 4096),
    "experts_per_gpu": (0.5, 1, 2),
}


def typical_settings(world_size: int) -> list[MoEConfig]:
    """The 243 typical single-MoE-layer settings of paper Table 6.

    ``samples/step`` and ``tokens/sample`` multiply into the per-GPU
    token count; every setting is top-2 at ``f = 1`` on 8-GPU nodes.
    Settings whose expert sharding does not divide the world size are
    skipped (cannot be placed), which never happens for the even world
    sizes of the paper's sweep.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    configs = []
    axes = TYPICAL_SETTINGS_AXES
    for samples, tokens, m, v, de in itertools.product(
            axes["samples_per_step"], axes["tokens_per_sample"],
            axes["model_dim"], axes["hidden_dim"],
            axes["experts_per_gpu"]):
        if de < 1 and world_size % round(1 / de) != 0:
            continue
        num_experts = max(1, round(world_size * de))
        configs.append(MoEConfig(
            world_size=world_size, experts_per_gpu=de, model_dim=m,
            hidden_dim=v, tokens_per_gpu=samples * tokens,
            top_k=min(2, num_experts)))
    return configs


def sample_capacity_factors(count: int, low: float = 1.0,
                            high: float = 16.0,
                            seed: int = 0) -> np.ndarray:
    """Log-uniform capacity factors emulating varied iterations
    (the hybrid ``f = 1 ~ 16`` rows of Tables 5 and 7)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0 < low <= high:
        raise ValueError("need 0 < low <= high")
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(math.log(low), math.log(high), count))
