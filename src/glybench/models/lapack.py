"""scipy's LAPACK routines, loaded without the ``scipy.linalg`` package.

``import scipy.linalg`` is slow and memory-hungry, and almost none of
that is LAPACK: most of it is ``scipy._lib._array_api`` and what that
pulls in (``numpy.f2py``, ``numpy.testing``, ``numpy.ma``). ROADMAP's
standing constraints give the measured figures. So the f2py extension
whose functions ``scipy.linalg.lapack`` re-exports,
``scipy.linalg._flapack``, is loaded here from scipy's ``linalg``
directory under its own name in ``sys.modules``: a later ``import
scipy.linalg`` reuses that module, and ``scipy.linalg.lapack.dpotrf`` is
the function called here. Each wrapper makes the call that
``cho_factor``, ``cho_solve`` or ``solve_triangular(trans="T")`` makes
for the arguments used in this package, so the results are
bit-identical. If the file is not found, or it fails to load outside its
package, the functions come from ``scipy.linalg.lapack``: the same
objects, at the package's import cost. Nothing loads until the first
call.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

_NAME = "scipy.linalg._flapack"


def _find_spec():
    """The extension's spec, found without importing ``scipy``."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        return None
    for root in scipy.submodule_search_locations or ():
        finder = FileFinder(os.path.join(root, "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(_NAME)
        if spec is not None:
            return spec
    return None


def _flapack():
    return sys.modules.get(_NAME) or _load()


def _load():
    spec = _find_spec()
    if spec is not None:
        module = importlib.util.module_from_spec(spec)
        sys.modules[_NAME] = module
        try:
            spec.loader.exec_module(module)
        except BaseException as error:
            del sys.modules[_NAME]
            # e.g. a shared library that only scipy/__init__.py puts on the path
            if not isinstance(error, ImportError):
                raise
        else:
            return module
    from scipy.linalg import lapack

    return lapack


def _check(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info} of {routine}")


def dpotrf(a: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """The upper Cholesky factor of ``a`` as ``cho_factor`` makes it: the
    lower triangle is left as it was. An F-ordered ``a`` is factorized in
    place when ``overwrite_a``."""
    c, info = _flapack().dpotrf(a, lower=0, clean=0, overwrite_a=overwrite_a)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    _check(info, "dpotrf")
    return c


def dpotrs(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``cho_solve((c, False), b)``: solves A x = b from A's upper Cholesky
    factor."""
    x, info = _flapack().dpotrs(c, b, lower=0)
    _check(info, "dpotrs")
    return x


def dtrtrs(c: np.ndarray, b: np.ndarray, overwrite_b: bool = True) -> np.ndarray:
    """``solve_triangular(c, b, trans="T", overwrite_b=overwrite_b)``: solves
    Uᵀ x = b for an F-ordered upper factor ``c``, the one layout for which
    scipy passes ``c`` as it is."""
    if not c.flags.f_contiguous:
        raise ValueError("dtrtrs takes an F-ordered triangular factor")
    x, info = _flapack().dtrtrs(c, b, lower=0, trans=1, unitdiag=0, overwrite_b=overwrite_b)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    _check(info, "dtrtrs")
    return x
