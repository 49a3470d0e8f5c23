"""Counted Cholesky factorization and triangular solves.

Thin wrappers over the LAPACK/BLAS routines with per-call overhead kept low
(these sit inside the per-iteration sampler loop). The factorization counter
exists so tests can assert how many Cholesky factorizations a Gibbs step
performs (the two-block kernels must do exactly one per iteration). The
counter is plain module state, meant for single-threaded test
instrumentation.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from .errors import FactorizationError

_f64 = np.empty(0, dtype=np.float64)
_potrf, = get_lapack_funcs(("potrf",), (_f64,))
_trsv, _syrk = get_blas_funcs(("trsv", "syrk"), (_f64,))

_factorizations = 0


def factorization_count() -> int:
    return _factorizations


def reset_factorization_count() -> None:
    global _factorizations
    _factorizations = 0


def cholesky_spd(a: np.ndarray, name: str = "matrix",
                 overwrite: bool = False) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Only the lower triangle of the result is meaningful. Raises
    FactorizationError naming the offending matrix when `a` is not
    numerically positive definite. With `overwrite` and a Fortran-ordered
    `a`, the factor is computed in place and `a` is returned.
    """
    global _factorizations
    _factorizations += 1
    c, info = _potrf(a, lower=1, clean=0, overwrite_a=int(overwrite))
    if info != 0:
        raise FactorizationError(name, f"LAPACK potrf info={info}")
    return c


def syrk_lower(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lower triangle of a a^T, written in place into the Fortran-ordered `out`.

    A C-ordered `a` reaches BLAS as its Fortran-ordered transpose, without a
    copy. The upper triangle of `out` is left as it was.
    """
    return _syrk(1.0, a.T, beta=0.0, c=out, trans=1, lower=1, overwrite_c=1)


def solve_lower(chol_lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for lower-triangular L."""
    if b.ndim == 1:
        return _trsv(chol_lower, b, lower=1, trans=0)
    return scipy.linalg.solve_triangular(chol_lower, b, lower=True,
                                         check_finite=False)


def solve_lower_t(chol_lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L^T x = b for lower-triangular L."""
    if b.ndim == 1:
        return _trsv(chol_lower, b, lower=1, trans=1)
    return scipy.linalg.solve_triangular(chol_lower, b, lower=True, trans="T",
                                         check_finite=False)
