from __future__ import annotations

import importlib.abc
import importlib.util
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from glybench.models import lapack, rbf_kernel
from glybench.models.gpr import KERNEL_BLOCK_ROWS

from test_models import python_json


def _system(n: int, d: int, m: int, seed: int):
    """A kernel-like SPD matrix, a vector and an (n, m) right-hand side."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, d))
    return rbf_kernel(z, z) + 0.25 * np.eye(n), rng.normal(size=n), rng.normal(size=(n, m))


def _ordered(a: np.ndarray, order: str) -> np.ndarray:
    return np.asfortranarray(a) if order == "F" else np.ascontiguousarray(a)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 2 * KERNEL_BLOCK_ROWS + 2), d=st.integers(1, 8), m=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), order_a=st.sampled_from("CF"),
       order_b=st.sampled_from("CF"), overwrite=st.booleans())
def test_the_wrappers_are_bit_equal_to_scipy_linalg(n, d, m, seed, order_a, order_b,
                                                    overwrite):
    a, y, b = _system(n, d, m, seed)
    a, b = _ordered(a, order_a), _ordered(b, order_b)

    want, _ = cho_factor(a.copy(order="K"), overwrite_a=overwrite, check_finite=False)
    got = lapack.dpotrf(a.copy(order="K"), overwrite_a=overwrite)
    assert got.flags.f_contiguous and want.flags.f_contiguous
    assert got.tobytes(order="F") == want.tobytes(order="F")

    for rhs in (y, b):
        assert (lapack.dpotrs(got, rhs.copy(order="K")).tobytes()
                == cho_solve((want, False), rhs.copy(order="K")).tobytes())

    want_v = solve_triangular(want, b.copy(order="K"), trans="T", overwrite_b=overwrite)
    got_v = lapack.dtrtrs(got, b.copy(order="K"), overwrite_b=overwrite)
    assert got_v.shape == want_v.shape
    assert got_v.tobytes(order="F") == want_v.tobytes(order="F")


_LOAD_FIRST = """
import json
import sys
import numpy as np
from glybench.models import lapack

lapack.dpotrf(np.eye(2))
before = "scipy.linalg" in sys.modules
import scipy.linalg.lapack as scipy_lapack

loaded = sys.modules["scipy.linalg._flapack"]
print(json.dumps({"scipy.linalg before": before,
                  "same": [getattr(scipy_lapack, name) is getattr(loaded, name)
                           for name in ("dpotrf", "dpotrs", "dtrtrs")]}))
"""


def test_a_later_scipy_linalg_import_reuses_the_loaded_extension():
    loaded = python_json(_LOAD_FIRST)
    assert loaded == {"scipy.linalg before": False, "same": [True, True, True]}


class _FailingLoader(importlib.abc.Loader):
    """An extension that cannot find a shared library it links to."""

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        raise ImportError("DLL load failed while importing _flapack")


@pytest.mark.parametrize("spec", [
    None,
    importlib.util.spec_from_loader("scipy.linalg._flapack", _FailingLoader()),
], ids=["not found", "fails to load"])
def test_without_a_loadable_extension_file_scipy_linalg_lapack_gives_the_same_results(
        monkeypatch, spec):
    import scipy.linalg.lapack as scipy_lapack

    a, y, b = _system(300, 5, 7, seed=3)

    def solve():
        c = lapack.dpotrf(a)
        return c, lapack.dpotrs(c, y), lapack.dtrtrs(c, b.copy())

    want = solve()
    monkeypatch.setattr(lapack, "_find_spec", lambda: spec)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    got = solve()
    assert "scipy.linalg._flapack" not in sys.modules
    assert lapack._flapack() is scipy_lapack
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_a_matrix_that_is_not_positive_definite_raises_linalg_error():
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        lapack.dpotrf(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_the_triangular_solve_takes_only_an_f_ordered_factor():
    c = lapack.dpotrf(np.eye(3) * 4.0)
    with pytest.raises(ValueError, match="F-ordered"):
        lapack.dtrtrs(np.ascontiguousarray(c), np.ones((3, 1)))
