"""Tests for the substrate dtype config.

The contract under test: float32 is the process default, every leaf
Tensor follows the active substrate dtype, op outputs keep whatever
dtype NumPy produced (so a float64 gradcheck graph stays float64 end
to end), and the config always restores cleanly — a leaked dtype from
one test would silently change every later test's numerics.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.core.substrate import (
    SUPPORTED_DTYPES,
    default_dtype,
    default_itemsize,
    set_default_dtype,
    substrate_dtype,
)


@pytest.fixture(autouse=True)
def _pinned_substrate():
    """Pin the dtype to its documented default for these tests.

    CI re-runs this file under ``REPRO_DTYPE=float64``; the contract
    under test here is the *unconfigured* default (env handling has its
    own tests below), so start each test from float32 and restore
    whatever the process was using afterwards.
    """
    prev = set_default_dtype(np.float32)
    yield
    set_default_dtype(prev)


class TestDtypeConfig:
    def test_default_is_float32(self):
        assert default_dtype() == np.dtype(np.float32)
        assert default_itemsize() == 4

    def test_supported_dtypes(self):
        assert SUPPORTED_DTYPES == (np.dtype(np.float32),
                                    np.dtype(np.float64))

    def test_set_returns_previous_and_restores(self):
        prev = set_default_dtype(np.float64)
        try:
            assert prev == np.dtype(np.float32)
            assert default_dtype() == np.dtype(np.float64)
            assert default_itemsize() == 8
        finally:
            set_default_dtype(prev)
        assert default_dtype() == np.dtype(np.float32)

    @pytest.mark.parametrize("bad", [np.float16, np.int32, "int64",
                                     complex])
    def test_unsupported_dtype_rejected(self, bad):
        with pytest.raises(ValueError, match="unsupported substrate"):
            set_default_dtype(bad)
        # A rejected set must not have changed the active dtype.
        assert default_dtype() == np.dtype(np.float32)

    def test_string_spelling_accepted(self):
        prev = set_default_dtype("float64")
        try:
            assert default_dtype() == np.dtype(np.float64)
        finally:
            set_default_dtype(prev)

    def test_context_manager_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with substrate_dtype(np.float64):
                assert default_dtype() == np.dtype(np.float64)
                raise RuntimeError("boom")
        assert default_dtype() == np.dtype(np.float32)

    def test_context_manager_nests(self):
        with substrate_dtype(np.float64):
            with substrate_dtype(np.float32):
                assert default_itemsize() == 4
            assert default_itemsize() == 8


class TestTensorDtypeSemantics:
    def test_leaf_follows_substrate_default(self):
        t = Tensor(np.arange(4.0))  # float64 payload coerced down
        assert t.data.dtype == np.float32
        with substrate_dtype(np.float64):
            assert Tensor([1.0, 2.0]).data.dtype == np.float64

    def test_explicit_dtype_wins(self):
        t = Tensor(np.arange(4.0), dtype=np.float64)
        assert t.data.dtype == np.float64

    def test_from_op_preserves_op_dtype(self):
        # Op outputs must NOT be re-coerced: a float64 gradcheck graph
        # built under a float32 default would silently lose precision.
        a = Tensor(np.ones(3), dtype=np.float64, requires_grad=True)
        b = Tensor(np.ones(3), dtype=np.float64)
        assert (a + b).data.dtype == np.float64
        assert (a * b).data.dtype == np.float64

    def test_accumulate_coerces_grad_to_param_dtype(self):
        a = Tensor(np.ones(3), requires_grad=True)  # float32 leaf
        (a * Tensor(np.ones(3, dtype=np.float64),
                    dtype=np.float64)).sum().backward()
        assert a.grad is not None
        assert a.grad.dtype == np.float32

    def test_end_to_end_graph_is_float32(self):
        from repro.autograd.functional import exp

        x = Tensor(np.random.default_rng(0).normal(size=(8, 4)),
                   requires_grad=True)
        w = Tensor(np.random.default_rng(1).normal(size=(4, 4)),
                   requires_grad=True)
        out = exp(x @ w)
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32
        assert w.grad.dtype == np.float32


class TestEnvParsing:
    def test_dtype_env(self, monkeypatch):
        from repro.core.substrate import _dtype_from_env

        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        assert _dtype_from_env() == np.dtype(np.float32)
        monkeypatch.setenv("REPRO_DTYPE", "float64")
        assert _dtype_from_env() == np.dtype(np.float64)
        monkeypatch.setenv("REPRO_DTYPE", "float16")
        with pytest.raises(ValueError):
            _dtype_from_env()
