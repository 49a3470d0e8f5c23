"""Hot per-iteration kernels with two interchangeable backends.

Every kernel ships as a pure-numpy implementation (``*_numpy``) and, when
numba is importable, a compiled scalar-loop version. The compiled versions
are used by default; set ``BLOCKGIBBS_DISABLE_NUMBA=1`` in the environment
(before import) to force the numpy fallback. Both backends are deterministic
given the same inputs; they may differ in the last ulp on reductions. The
numpy backend runs the inverse-Gaussian transform of short vectors through
the same scalar loop, uncompiled, because there numpy's per-call cost
dominates.

All random-number consumption happens outside these kernels: callers draw
the standard normals and uniforms and pass them in, so the active backend
never changes the random stream.
"""
from __future__ import annotations

import math
import os

import numpy as np

_FLAG = os.environ.get("BLOCKGIBBS_DISABLE_NUMBA", "").strip().lower()
NUMBA_DISABLED = _FLAG in {"1", "true", "yes", "on"}

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled via BLOCKGIBBS_DISABLE_NUMBA")
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False


# ---------------------------------------------------------------------------
# inverse-Gaussian transform
#
# Maps one chi-square variate (normal**2) and one uniform to a draw from the
# mean/shape-parameterized inverse-Gaussian via the Michael-Schucany-Haas
# transformation. Entries with mu == +inf take the exact large-mean limit
# lam / chi2, which corresponds to drawing the reciprocal scale when the
# conditioning coefficient block is exactly zero, and then pass through the
# same accept/reject step as every other entry.
#
# The vectorized and the scalar versions perform the same IEEE operations in
# the same order, so they agree bit for bit for mu in [0, inf], finite
# normals, lam > 0 and uniforms in [0, 1]; the squares are products, never
# pow, and the scalar loop returns numpy's inf or nan where Python would
# raise on a division by zero.
# ---------------------------------------------------------------------------

# Vectors up to this length take the scalar loop on the numpy backend: each
# numpy call costs about a microsecond whatever the length, and the
# vectorized transform makes about twenty of them.
SHORT_VECTOR_MAX = 8


def ig_transform_numpy(mu: np.ndarray, lam: float, normals: np.ndarray,
                       uniforms: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        nu = normals * normals
        mnu = mu * nu
        root = np.sqrt(4.0 * mu * lam * nu + mnu * mnu)
        x = mu - 2.0 * mu * mu * nu / (mnu + root)
        np.copyto(x, mu, where=nu == 0.0)  # exact nu -> 0 limit, avoids 0/0
        np.divide(lam, nu, out=x, where=np.isinf(mu))
        out = mu * mu / x
        np.copyto(out, x, where=uniforms * (mu + x) <= mu)
    return out


def _ig_transform_loop(mu, lam, normals, uniforms):
    q = len(mu)
    out = np.empty(q)
    for i in range(q):
        m = mu[i]
        nu = normals[i] * normals[i]
        if math.isinf(m):
            x = lam / nu if nu > 0.0 else math.inf
        elif nu == 0.0:  # exact nu -> 0 limit, avoids 0/0
            x = m
        else:
            mnu = m * nu
            den = mnu + math.sqrt(4.0 * m * lam * nu + mnu * mnu)
            # den == 0 only when m * nu underflows, where the quotient is 0/0
            x = m - 2.0 * m * m * nu / den if den > 0.0 else math.nan
        if uniforms[i] * (m + x) <= m:
            out[i] = x
        elif x != 0.0:
            out[i] = m * m / x
        else:  # mu = inf and lam / nu underflowed: numpy's inf / 0
            out[i] = math.inf
    return out


def ig_transform_short(mu: np.ndarray, lam: float, normals: np.ndarray,
                       uniforms: np.ndarray) -> np.ndarray:
    """The numpy backend's transform: the scalar loop on short vectors."""
    if mu.shape[0] > SHORT_VECTOR_MAX:
        return ig_transform_numpy(mu, lam, normals, uniforms)
    return _ig_transform_loop(mu.tolist(), lam, normals.tolist(), uniforms.tolist())


# ---------------------------------------------------------------------------
# group reductions and expansions
# ---------------------------------------------------------------------------

def group_sqnorms_numpy(beta: np.ndarray, offsets: np.ndarray,
                        sizes: np.ndarray) -> np.ndarray:
    return np.add.reduceat(beta * beta, offsets)


def _group_sqnorms_loop(beta, offsets, sizes):
    k = offsets.shape[0]
    out = np.empty(k)
    for g in range(k):
        acc = 0.0
        for j in range(offsets[g], offsets[g] + sizes[g]):
            acc += beta[j] * beta[j]
        out[g] = acc
    return out


def expand_by_group_numpy(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    return np.repeat(values, sizes)


def _expand_by_group_loop(values, sizes):
    p = 0
    for g in range(sizes.shape[0]):
        p += sizes[g]
    out = np.empty(p)
    pos = 0
    for g in range(sizes.shape[0]):
        for _ in range(sizes[g]):
            out[pos] = values[g]
            pos += 1
    return out


# ---------------------------------------------------------------------------
# tridiagonal prior-precision bands for the fused model
# ---------------------------------------------------------------------------

def fused_bands_numpy(inv_tau2: np.ndarray,
                      inv_omega2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diag = inv_tau2.copy()
    diag[1:] += inv_omega2   # omega_{j-1} added before omega_j, as in the loop
    diag[:-1] += inv_omega2
    return diag, -inv_omega2


def _fused_bands_loop(inv_tau2, inv_omega2):
    p = inv_tau2.shape[0]
    diag = np.empty(p)
    off = np.empty(p - 1)
    for j in range(p):
        d = inv_tau2[j]
        if j > 0:
            d += inv_omega2[j - 1]
        if j < p - 1:
            d += inv_omega2[j]
        diag[j] = d
    for j in range(p - 1):
        off[j] = -inv_omega2[j]
    return diag, off


def tridiag_quad_form_numpy(diag: np.ndarray, off: np.ndarray,
                            beta: np.ndarray) -> float:
    return float(np.dot(diag, beta * beta) + 2.0 * np.dot(off, beta[:-1] * beta[1:]))


def _tridiag_quad_form_loop(diag, off, beta):
    p = beta.shape[0]
    acc = 0.0
    for j in range(p):
        acc += diag[j] * beta[j] * beta[j]
    for j in range(p - 1):
        acc += 2.0 * off[j] * beta[j] * beta[j + 1]
    return acc


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

if HAS_NUMBA:
    ig_transform_numba = njit(cache=True)(_ig_transform_loop)
    group_sqnorms_numba = njit(cache=True)(_group_sqnorms_loop)
    expand_by_group_numba = njit(cache=True)(_expand_by_group_loop)
    fused_bands_numba = njit(cache=True)(_fused_bands_loop)
    tridiag_quad_form_numba = njit(cache=True)(_tridiag_quad_form_loop)

    BACKEND = "numba"
    ig_transform = ig_transform_numba
    group_sqnorms = group_sqnorms_numba
    expand_by_group = expand_by_group_numba
    fused_bands = fused_bands_numba
    tridiag_quad_form = tridiag_quad_form_numba
else:
    BACKEND = "numpy"
    ig_transform = ig_transform_short
    group_sqnorms = group_sqnorms_numpy
    expand_by_group = expand_by_group_numpy
    fused_bands = fused_bands_numpy
    tridiag_quad_form = tridiag_quad_form_numpy

KERNEL_NAMES = (
    "ig_transform",
    "group_sqnorms",
    "expand_by_group",
    "fused_bands",
    "tridiag_quad_form",
)

_warmed = False


def warm_up() -> None:
    """Trigger one call of every kernel so JIT compilation happens now.

    Chain drivers call this before starting their wall-clock timer; after
    the first call it is a cheap no-op.
    """
    global _warmed
    if _warmed:
        return
    mu = np.array([1.0, np.inf])
    half = np.array([0.5, 0.5])
    ig_transform(mu, 1.0, half, half)
    offsets = np.array([0], dtype=np.int64)
    sizes = np.array([2], dtype=np.int64)
    group_sqnorms(half, offsets, sizes)
    expand_by_group(np.array([1.0]), sizes)
    diag, off = fused_bands(np.array([1.0, 1.0]), np.array([1.0]))
    tridiag_quad_form(diag, off, half)
    _warmed = True
