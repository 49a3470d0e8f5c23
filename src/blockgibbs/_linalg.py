"""Counted Cholesky factorization, other LAPACK/BLAS wrappers, one BLAS thread.

Thin wrappers over the LAPACK/BLAS routines with per-call overhead kept low
(these sit inside the per-iteration sampler loop). The four routines (`dpotrf`,
`dtpqrt`, `dtrsv`, `dsyrk`) are the f2py routine objects of scipy's `_flapack`
and `_fblas` extension modules, loaded from the `linalg` directory of the
installed scipy after a plain `import scipy` (which keeps scipy's distributor
set-up). The `scipy.linalg` package itself is not imported: it would pull in
some 300 further modules and take about 0.25 s. The two modules are left out
of `sys.modules`, so a later `import scipy.linalg` works as usual; an
extension module is initialised once per process, so it hands out the same
routine objects.

The factorization counter exists so tests can assert how many Cholesky
factorizations a Gibbs step performs (the two-block kernels must do exactly
one per iteration). The counter is plain module state, meant for
single-threaded test instrumentation.

`one_blas_thread()` runs a block with every loaded OpenBLAS copy set to one
thread, in the style of `np.errstate`, and restores the caller's counts on
exit, also when the block raises. Chains run inside it, so their draws do not
depend on the host's thread count (a threaded `syrk` or `potrf` sums in
another order) and no iteration waits on a BLAS worker that shares a core
with the caller. The copies (numpy's and scipy's wheels each bring one) are
found once per process from `/proc/self/maps` and driven through ctypes;
where none is found, the block runs under the host's setting and the count
reads "unknown". Only a copy whose count is not already 1 is set: OpenBLAS
shuts its thread pool down in a forked child, and any `set_num_threads` call
there restarts a pool whose idle threads spin, so `map_jobs` forks its
workers inside the scope and their own scopes make no call.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import itertools
import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

from .errors import FactorizationError


def _scipy_linalg_extension(name: str):
    """scipy's extension module `scipy.linalg.<name>`, loaded from its file.

    Neither the `scipy.linalg` package is imported nor the module left in
    `sys.modules`; once `scipy.linalg` is imported, its own module is used.
    """
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    stem = os.path.join(os.path.dirname(scipy.__file__), "linalg", name)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            loader = importlib.machinery.ExtensionFileLoader(fullname, stem + suffix)
            module = loader.create_module(
                importlib.machinery.ModuleSpec(fullname, loader, origin=loader.path))
            loader.exec_module(module)
            # the interpreter registers a single-phase extension as it creates it
            sys.modules.pop(fullname, None)
            return module
    raise ImportError(f"scipy's extension module {fullname} was not found at {stem}*",
                      name=fullname, path=stem)


_flapack = _scipy_linalg_extension("_flapack")
_fblas = _scipy_linalg_extension("_fblas")
_potrf, _tpqrt = _flapack.dpotrf, _flapack.dtpqrt
_trsv, _syrk = _fblas.dtrsv, _fblas.dsyrk

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
    """Solve L x = b for lower-triangular L and a vector b."""
    return _trsv(chol_lower, b, lower=1, trans=0)


def solve_lower_t(chol_lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L^T x = b for lower-triangular L and a vector b."""
    return _trsv(chol_lower, b, lower=1, trans=1)


# rows of [x y] per block: the one copy of the data `qr_r` makes (256 KB at p = 250)
_QR_BLOCK_ROWS = 128


def qr_r(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The upper-triangular R of the QR factorization [x y] = Q R.

    `x` is n x p with n > p and `y` has length n; R is (p + 1) x (p + 1) in
    Fortran order. Blocks of rows are folded into R in turn (LAPACK tpqrt),
    so neither [x y] nor Q is ever formed.
    """
    n, p = x.shape
    r = np.zeros((p + 1, p + 1), order="F")
    nb = min(32, p + 1)
    block = np.empty((min(_QR_BLOCK_ROWS, n), p + 1), order="F")
    for start in range(0, n, _QR_BLOCK_ROWS):
        rows = slice(start, min(start + _QR_BLOCK_ROWS, n))
        if rows.stop - start < block.shape[0]:
            block = np.empty((rows.stop - start, p + 1), order="F")
        block[:, :p], block[:, p] = x[rows], y[rows]
        r = _tpqrt(0, nb, r, block, overwrite_a=1, overwrite_b=1)[0]
    return r


@dataclass(frozen=True)
class _OpenBlas:
    """The thread controls of one loaded OpenBLAS copy."""

    name: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    config: str


# exported names: system builds use the bare prefix, the numpy and scipy
# wheels "scipy_openblas_", and 64-bit-integer builds append "64_"
_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def _openblas_control(path: str) -> _OpenBlas | None:
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    except OSError:
        return None
    for prefix, suffix in itertools.product(_PREFIXES, _SUFFIXES):
        names = [prefix + stem + suffix
                 for stem in ("get_num_threads", "set_num_threads", "get_config")]
        if all(hasattr(lib, name) for name in names):
            get, set_, config = (getattr(lib, name) for name in names)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            config.argtypes, config.restype = [], ctypes.c_char_p
            return _OpenBlas(os.path.basename(path), get, set_,
                             config().decode(errors="replace"))
    return None


@functools.cache
def _openblas_controls() -> tuple[_OpenBlas, ...]:
    """Each OpenBLAS copy mapped into this process, found once per process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return ()
    return tuple(lib for lib in map(_openblas_control, paths) if lib is not None)


def blas_libraries() -> dict[str, str]:
    """The configuration string (version and build) of each OpenBLAS copy found."""
    return {lib.name: lib.config for lib in _openblas_controls()}


# One scope at a time owns the process-wide counts: the outermost of nested
# or concurrent scopes (from several Python threads) saves and sets them,
# and the last to leave restores them.
_scope_lock = threading.Lock()
_scope_depth = 0
_scope_saved: list[tuple[_OpenBlas, int]] = []


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with one thread in each OpenBLAS copy; restore on exit.

    Yields the thread count in effect: 1, or "unknown" when no OpenBLAS
    control was found.
    """
    global _scope_depth, _scope_saved
    controls = _openblas_controls()
    with _scope_lock:
        if _scope_depth == 0:
            counts = [(lib, lib.get_threads()) for lib in controls]
            _scope_saved = [(lib, count) for lib, count in counts if count != 1]
            for lib, _ in _scope_saved:
                lib.set_threads(1)
        _scope_depth += 1
        threads = max(lib.get_threads() for lib in controls) if controls else "unknown"
    try:
        yield threads
    finally:
        with _scope_lock:
            _scope_depth -= 1
            if _scope_depth == 0:
                for lib, count in _scope_saved:
                    lib.set_threads(count)
                _scope_saved = []
