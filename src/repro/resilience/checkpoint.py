"""Checkpoint/restore of the functional-substrate training state.

A checkpoint captures *everything* a training step depends on — model
parameters, Adam moments and step count, the data-sampling RNG state,
the training history so far, and any expert-failure masks — so that
``train 20 steps -> checkpoint -> restore -> train 20 more`` is **bit
identical** to training 40 steps straight (the determinism contract
large-scale training reports treat as table stakes; see Megatron Core
MoE in PAPERS.md).  Sparsity schedules need no state of their own:
they are pure functions of the step index, which the checkpoint
records.

Format: a single ``.npz`` file holding every array (parameters under
``param/<name>``, Adam moments under ``adam_m/<i>`` / ``adam_v/<i>``)
plus one JSON metadata entry for the scalars, the RNG state, and the
history lists.  NumPy's PCG64 state is a nested dict of (big) integers,
which JSON represents exactly.

Dtype contract (ISSUE 6): the checkpoint's arrays are authoritative.
``.npz`` preserves each array's dtype exactly, and whenever the dtypes
differ restore re-points a live parameter at a copy of the saved array
and :meth:`Adam.load_moments` re-seats the optimizer's parameter store
and moment buffers in the saved dtype instead of casting in place — so
a float32 run restored into a float64-initialised model (or vice versa)
resumes bit identical to the run that wrote the checkpoint.  The
substrate dtype active at capture time is recorded in the metadata for
provenance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core import substrate as _substrate
from repro.obs.runs import atomic_write

__all__ = [
    "CHECKPOINT_VERSION",
    "TrainingCheckpoint",
    "capture_training_state",
    "restore_training_state",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1


@dataclass
class TrainingCheckpoint:
    """In-memory image of one training run at a step boundary.

    ``step`` is the number of completed steps — the index the resumed
    run continues from.
    """

    step: int
    params: dict[str, np.ndarray]
    opt_m: list[np.ndarray]
    opt_v: list[np.ndarray]
    opt_step: int
    rng_state: dict
    losses: list[float] = field(default_factory=list)
    train_accuracies: list[float] = field(default_factory=list)
    skipped_steps: list[int] = field(default_factory=list)
    capacity_traces: dict[int, list[float]] = field(default_factory=dict)
    failed_experts: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")


def _named_params(model: Any) -> list[tuple[str, Any]]:
    named = model.named_parameters()
    names = [n for n, _ in named]
    if len(set(names)) != len(names):
        raise ValueError("model has duplicate parameter names; "
                         "cannot checkpoint by name")
    return named


def capture_training_state(model: Any, optimizer: Any,
                           rng: np.random.Generator, step: int,
                           result: Any | None = None
                           ) -> TrainingCheckpoint:
    """Snapshot the trainable state after ``step`` completed steps.

    ``result`` is duck-typed against
    :class:`repro.train.trainer.TrainResult`; when given, the loss /
    accuracy / capacity histories are carried so the resumed run's
    :class:`TrainResult` matches the uninterrupted one.
    """
    params = {name: p.data.copy() for name, p in _named_params(model)}
    failed: dict[int, list[int]] = {}
    if hasattr(model, "moe_layers"):
        for i, layer in enumerate(model.moe_layers()):
            if getattr(layer, "failed_experts", None):
                failed[i] = sorted(layer.failed_experts)
    return TrainingCheckpoint(
        step=step,
        params=params,
        opt_m=[m.copy() for m in optimizer._m],
        opt_v=[v.copy() for v in optimizer._v],
        opt_step=optimizer._step,
        rng_state=rng.bit_generator.state,
        losses=list(result.losses) if result is not None else [],
        train_accuracies=(list(result.train_accuracies)
                          if result is not None else []),
        skipped_steps=(list(getattr(result, "skipped_steps", []))
                       if result is not None else []),
        capacity_traces=({k: list(v)
                          for k, v in result.capacity_traces.items()}
                         if result is not None else {}),
        failed_experts=failed,
    )


def restore_training_state(model: Any, optimizer: Any,
                           rng: np.random.Generator,
                           ckpt: TrainingCheckpoint) -> None:
    """Load a checkpoint into live objects, in place.

    The model must have been constructed identically to the
    checkpointed one (same architecture and init seed) — the
    checkpoint stores only the *trainable* state, not the graph.
    """
    named = dict(_named_params(model))
    missing = set(ckpt.params) - set(named)
    extra = set(named) - set(ckpt.params)
    if missing or extra:
        raise ValueError(
            f"parameter name mismatch restoring checkpoint: "
            f"missing={sorted(missing)} unexpected={sorted(extra)}")
    for name, data in ckpt.params.items():
        p = named[name]
        if p.data.shape != data.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: model {p.data.shape} "
                f"vs checkpoint {data.shape}")
        if p.data.dtype == data.dtype:
            np.copyto(p.data, data)
        else:
            # The checkpoint's dtype wins: an in-place copyto would
            # silently cast and break bit-identical resumption.  The
            # optimizer adopts the new array in load_moments below.
            p.data = data.copy()
        p.grad = None
    optimizer.load_moments(ckpt.opt_m, ckpt.opt_v, ckpt.opt_step)
    rng.bit_generator.state = ckpt.rng_state
    if ckpt.failed_experts and hasattr(model, "moe_layers"):
        layers = model.moe_layers()
        # ``mask_expert``, not ``fail_expert``: the same validation,
        # but no ``fault`` event for a failure this run never suffered.
        for i, experts in ckpt.failed_experts.items():
            for e in experts:
                layers[i].mask_expert(e)


def save_checkpoint(ckpt: TrainingCheckpoint, path: str) -> None:
    """Write the checkpoint as a single ``.npz`` file, atomically: a
    crash mid-save leaves the previous file at ``path`` (or none)."""
    arrays: dict[str, np.ndarray] = {}
    for name, data in ckpt.params.items():
        arrays[f"param/{name}"] = data
    for i, m in enumerate(ckpt.opt_m):
        arrays[f"adam_m/{i}"] = m
    for i, v in enumerate(ckpt.opt_v):
        arrays[f"adam_v/{i}"] = v
    meta = {
        "version": CHECKPOINT_VERSION,
        "step": ckpt.step,
        "opt_step": ckpt.opt_step,
        "opt_slots": len(ckpt.opt_m),
        "rng_state": ckpt.rng_state,
        "losses": ckpt.losses,
        "train_accuracies": ckpt.train_accuracies,
        "skipped_steps": ckpt.skipped_steps,
        "capacity_traces": {str(k): v
                            for k, v in ckpt.capacity_traces.items()},
        "failed_experts": {str(k): v
                           for k, v in ckpt.failed_experts.items()},
        "param_names": list(ckpt.params),
        # Provenance only: the arrays themselves carry the dtypes.
        "substrate_dtype": np.dtype(_substrate.default_dtype()).name,
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str) -> TrainingCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {meta['version']}, "
                f"expected {CHECKPOINT_VERSION}")
        params = {name: data[f"param/{name}"].copy()
                  for name in meta["param_names"]}
        opt_m = [data[f"adam_m/{i}"].copy()
                 for i in range(meta["opt_slots"])]
        opt_v = [data[f"adam_v/{i}"].copy()
                 for i in range(meta["opt_slots"])]
    return TrainingCheckpoint(
        step=meta["step"],
        params=params,
        opt_m=opt_m,
        opt_v=opt_v,
        opt_step=meta["opt_step"],
        rng_state=meta["rng_state"],
        losses=[float(x) for x in meta["losses"]],
        train_accuracies=[float(x) for x in meta["train_accuracies"]],
        skipped_steps=[int(x) for x in meta["skipped_steps"]],
        capacity_traces={int(k): [float(x) for x in v]
                         for k, v in meta["capacity_traces"].items()},
        failed_experts={int(k): [int(x) for x in v]
                        for k, v in meta["failed_experts"].items()},
    )
