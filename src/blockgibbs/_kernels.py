"""Hot per-iteration kernels, in numpy.

The sampler looks each kernel up on this module at call time. The
inverse-Gaussian transform of short vectors runs through a scalar loop,
because there numpy's per-call cost dominates.

All random-number consumption happens outside these kernels: callers draw
the standard normals and uniforms and pass them in.
"""
from __future__ import annotations

import math

import numpy as np


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

# Vectors up to this length take the scalar loop: each numpy call costs
# about a microsecond whatever the length, and the vectorized transform
# makes about twenty of them. At 16 entries the loop took 7-8 us against
# numpy's 14-17 us (`timeit`, 2-vCPU VM, numpy 2.4).
SHORT_VECTOR_MAX = 16


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


def ig_transform(mu: np.ndarray, lam: float, normals: np.ndarray,
                 uniforms: np.ndarray) -> np.ndarray:
    """The sampler's transform: the scalar loop on short vectors."""
    if mu.shape[0] > SHORT_VECTOR_MAX:
        return ig_transform_numpy(mu, lam, normals, uniforms)
    return _ig_transform_loop(mu.tolist(), lam, normals.tolist(), uniforms.tolist())


# ---------------------------------------------------------------------------
# group reductions, expansions and the fused model's tridiagonal bands
# ---------------------------------------------------------------------------

def group_sqnorms(beta: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return np.add.reduceat(beta * beta, offsets)


def expand_by_group(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """`values[index]`: with `index` the group of each coefficient, built once
    per chain, this is np.repeat(values, sizes) at a third of its cost."""
    return values[index]


def fused_bands(inv_tau2: np.ndarray,
                inv_omega2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diag = inv_tau2.copy()
    diag[1:] += inv_omega2   # omega_{j-1} added before omega_j
    diag[:-1] += inv_omega2
    return diag, -inv_omega2


def tridiag_quad_form(diag: np.ndarray, off: np.ndarray,
                      beta: np.ndarray) -> float:
    return float(np.dot(diag, beta * beta) + 2.0 * np.dot(off, beta[:-1] * beta[1:]))


def warm_up() -> None:
    """Nothing to prepare: every kernel is plain numpy and needs no compiling.

    Kept so that callers which warm the kernels before starting a timer
    keep working.
    """
