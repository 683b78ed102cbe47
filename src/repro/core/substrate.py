"""Process-wide substrate configuration: the dtype.

The functional substrate historically hardcoded ``np.float64``
everywhere — every :class:`~repro.autograd.tensor.Tensor` coerced its
payload, the profiler pinned ``ITEMSIZE = 8``, and calibration pinned
``DTYPE_BYTES = 8``.  That monoculture made the repo unable to measure
the single-precision regime Tutel actually targets (fp16/fp32 kernels,
Section 3) and doubled every byte ledger under float32.

This module is the single source of truth for the substrate dtype:

* ``default_dtype()`` — the dtype new Tensors are created with.
  Defaults to **float32** (the training/bench regime); override
  per-process with :func:`set_default_dtype`, per-block with the
  :func:`substrate_dtype` context manager, or at startup with the
  ``REPRO_DTYPE`` environment variable (``float32`` / ``float64``).
* ``default_itemsize()`` — bytes per element of the active dtype; the
  profiler and calibrator derive their byte accounting from this.

It deliberately lives in ``repro.core`` (a leaf package) rather than
``repro.autograd``: the profiler needs the itemsize and is itself
imported by ``autograd.tensor``, so the config must sit below both.
Gradient-check tests keep float64 via ``substrate_dtype(np.float64)``
— central differences at float32 lose half the mantissa to roundoff.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "SUPPORTED_DTYPES",
    "default_dtype",
    "set_default_dtype",
    "default_itemsize",
    "substrate_dtype",
]

#: Dtypes the substrate supports end to end (autograd, profiler cost
#: table, calibration, checkpoints).  float16 is deliberately excluded:
#: NumPy has no fast half-precision kernels, so it would only distort
#: the calibrated coefficients.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _validate(dtype: object) -> np.dtype:
    dt = np.dtype(dtype)
    if dt not in SUPPORTED_DTYPES:
        supported = ", ".join(d.name for d in SUPPORTED_DTYPES)
        raise ValueError(
            f"unsupported substrate dtype {dt.name!r}; expected one of "
            f"{supported}")
    return dt


def _dtype_from_env() -> np.dtype:
    raw = os.environ.get("REPRO_DTYPE", "").strip()
    if not raw:
        return np.dtype(np.float32)
    return _validate(raw)


_DEFAULT_DTYPE: np.dtype = _dtype_from_env()


def default_dtype() -> np.dtype:
    """The dtype new Tensors (and substrate buffers) are created with."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype: object) -> np.dtype:
    """Set the process-wide substrate dtype; returns the previous one."""
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = _validate(dtype)
    return previous


def default_itemsize() -> int:
    """Bytes per element of the active substrate dtype (4 or 8)."""
    return _DEFAULT_DTYPE.itemsize


@contextmanager
def substrate_dtype(dtype: object) -> Iterator[np.dtype]:
    """Temporarily switch the substrate dtype (e.g. float64 gradchecks)."""
    previous = set_default_dtype(dtype)
    try:
        yield _DEFAULT_DTYPE
    finally:
        set_default_dtype(previous)

