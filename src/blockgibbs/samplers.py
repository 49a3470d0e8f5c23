"""Two-block and three-block Gibbs kernels plus the chain driver.

Both kernel families share the same latent-scale update, which uses the
incoming coefficients and residual variance. They differ only in how the
residual variance is drawn afterwards:

* two-block: residual variance from its conditional given the scales alone
  (marginal over the coefficients), then the coefficients;
* three-block: residual variance from its conditional given the incoming
  coefficients and the fresh scales, then the coefficients.

Either way an iteration performs exactly one Cholesky factorization, reused
for the variance draw and for the coefficient draw. Each
conditional is written once, here: each model's prior (the latent-scale
draw, the prior precision Q and beta^T Q beta) in one object per chain
(`_chain_prior`), the two residual-variance scales and the coefficient draw.
`run_chain` is the one chain driver, and `sample_mvn_precision` makes the
dense update's coefficient draw.

A chain's setup and loop run under `_linalg.one_blas_thread()`, so its draws
do not depend on the host's BLAS thread count.

Which matrix is factored is decided once per chain from the model and the
data shape:

* dense update (every model when p <= n, the fused lasso at any p): the
  p x p posterior precision A = X^T X + Q = L L^T, with Q the prior
  precision; when n > p, the p + 1 rows of R, the triangular factor of
  [X y] taken once per chain, stand in for (X, y). Both scales are
  0.5 S(v) + xi for S(v) = ||y - X v||^2 + v^T Q v, at the mean
  m = L^-T u, u = L^-1 X^T y (two-block, one more triangular solve) or at
  the incoming beta (three-block), and beta = L^-T (u + sigma z);
* n-space update (group and sparse group lasso when p > n, where Q is
  diagonal with D = Q^-1): the n x n matrix I + X D X^T, following
  Bhattacharya, Chakraborty & Mallick (2016, Biometrika 103(4)). The
  two-block scale is the sum of squares 0.5 ||L^-1 y||^2 + xi; the
  three-block scale keeps the O(np) residual of `_sum_of_squares`.

Draw-order contract per iteration (fixed for reproducibility): group scales
first, then per-coefficient / per-difference scales, then the residual
variance (one gamma draw), then the coefficient noise. Each scale vector is
the inverse-Gaussian vector draw of `sample_inverse_gaussian_vector` (a
normal vector, then a uniform vector). The dense update draws p standard
normals z for the noise; the n-space update makes one
standard_normal(p + n) call whose first p values are xi and last n are
delta, and sets u = sigma sqrt(D) xi, v = X u + sigma delta and
beta = u + D X^T (I + X D X^T)^-1 (y - v).
"""
from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._linalg import (
    cholesky_spd,
    one_blas_thread,
    qr_r,
    solve_lower,
    solve_lower_t,
    syrk_lower,
)
from .errors import DimensionMismatchError, FactorizationError, SamplerError
from .model_core import (
    ChainState,
    Dataset,
    ModelKind,
    ModelSpec,
    add_prior_precision,
)
from .rng_dist import (
    RngStream,
    _inverse_gaussian_draws,
    _require_integers,
    _require_positive,
)

__all__ = [
    "KernelKind",
    "RunConfig",
    "ChainOutput",
    "run_chain",
    "initial_chain_state",
    "sample_mvn_precision",
]


class KernelKind(str, enum.Enum):
    TWO_BLOCK = "2bg"
    THREE_BLOCK = "3bg"


@dataclass(frozen=True)
class RunConfig:
    """Chain length, burn-in, seed, and storage options."""

    n_iter: int = 10_000
    burn_in: int = 1_000
    seed: int = 0
    store_beta: bool = False
    thin: int = 1

    def __post_init__(self):
        _require_integers(n_iter=self.n_iter, burn_in=self.burn_in,
                          thin=self.thin, seed=self.seed)
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError(
                f"burn_in must satisfy 0 <= burn_in < n_iter, got "
                f"burn_in={self.burn_in}, n_iter={self.n_iter}")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.n_keep < 1:
            raise ValueError(
                f"n_iter={self.n_iter} with burn_in={self.burn_in} and "
                f"thin={self.thin} keeps 0 draws")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def n_keep(self) -> int:
        """The number of stored draws: every thin-th one after burn-in."""
        return (self.n_iter - self.burn_in) // self.thin


@dataclass(frozen=True, eq=False)
class ChainOutput:
    """Stored draws and run metadata for one chain.

    `wall_time_seconds` covers the iteration loop only (burn-in included),
    measured on a monotonic clock; dataset generation and I/O are excluded.
    `block_update` names the (sigma2, beta) update the chain ran: "dense" or
    "nspace". `blas_threads` is the BLAS thread count in effect during the
    loop: 1, or "unknown" where no OpenBLAS control was found.
    """

    sigma2_draws: np.ndarray
    beta_draws: np.ndarray | None
    wall_time_seconds: float
    kernel: KernelKind
    model: ModelSpec
    seed: int
    n: int
    p: int
    config: RunConfig
    block_update: str
    blas_threads: int | str


# The chain loop runs with every floating-point warning off: an all-zero
# coefficient block divides by zero on purpose (an infinite inverse-Gaussian
# mean), and non-finite draws are detected explicitly and raised as
# SamplerError. The caller's settings are restored when the loop exits.
_QUIET = dict(all="ignore")


def _ig_draws(lam_sq: float, sigma2: float, sq: np.ndarray,
              gen: np.random.Generator) -> np.ndarray:
    """Reciprocal-scale draws: IG(sqrt(lam^2 sigma2 / sq), lam^2) per entry.

    Entries with sq == 0 get an infinite mean parameter (a division by zero,
    so callers run this under np.errstate) and take the exact large-mean
    limit inside the transform (the zero-coefficient branch).
    """
    return _inverse_gaussian_draws(np.sqrt(lam_sq * sigma2 / sq), lam_sq, gen)


class _DiagonalPrior:
    """Group and sparse group lasso: Q = diag(1/tau_g^2 repeated over group g),
    plus diag(1/gamma_j^2) for the sparse group lasso."""

    off = None

    def __init__(self, spec: ModelSpec):
        self._offsets = spec.groups.offsets
        sizes = spec.groups.group_sizes
        self._index = np.repeat(np.arange(sizes.shape[0]), sizes)  # each entry's group
        if spec.kind is ModelKind.GROUP_LASSO:
            self._lam_sq, self._lam2_sq = spec.lam * spec.lam, None
        else:
            self._lam_sq, self._lam2_sq = spec.lam1 * spec.lam1, spec.lam2 * spec.lam2
        self.diag = None

    def draw(self, beta, sigma2, gen):
        sq = _kernels.group_sqnorms(beta, self._offsets)
        scales = (_ig_draws(self._lam_sq, sigma2, sq, gen),)
        if self._lam2_sq is not None:
            scales += (_ig_draws(self._lam2_sq, sigma2, beta * beta, gen),)
        self.set_scales(scales)
        return scales

    def set_scales(self, scales):
        diag = _kernels.expand_by_group(scales[0], self._index)
        self.diag = diag if len(scales) == 1 else diag + scales[1]

    def quad_form(self, beta) -> float:
        q = float(self.diag @ (beta * beta))
        if q != q:  # an infinite precision times a coefficient held at 0
            q = float(np.where(beta != 0.0, self.diag, 0.0) @ (beta * beta))
        return q


class _FusedPrior:
    """Fused lasso: Q = diag(1/tau_j^2) plus, for each difference,
    (e_j - e_{j+1}) (e_j - e_{j+1})^T / omega_j^2, a tridiagonal matrix."""

    def __init__(self, spec: ModelSpec):
        self._lam1_sq, self._lam2_sq = spec.lam1 * spec.lam1, spec.lam2 * spec.lam2
        self.diag = self.off = None

    def draw(self, beta, sigma2, gen):
        inv_tau2 = _ig_draws(self._lam1_sq, sigma2, beta * beta, gen)
        diffs = beta[1:] - beta[:-1]
        scales = (inv_tau2, _ig_draws(self._lam2_sq, sigma2, diffs * diffs, gen))
        self.set_scales(scales)
        return scales

    def set_scales(self, scales):
        self.diag, self.off = _kernels.fused_bands(scales[0], scales[1])

    def quad_form(self, beta) -> float:
        q = _kernels.tridiag_quad_form(self.diag, self.off, beta)
        if q != q:  # an infinite precision times a coefficient held at 0
            q = _kernels.tridiag_quad_form(np.where(beta != 0.0, self.diag, 0.0),
                                           self.off, beta)
        return q


def _chain_prior(spec: ModelSpec):
    """The prior object of one chain: the one home of the model's prior.

    `draw(beta, sigma2, gen)` draws the reciprocal latent scales from the
    incoming (beta, sigma2) in the draw-order contract's order, sets Q from
    them and returns them; `set_scales(scales)` sets Q from given reciprocal
    scales. Q is held as its diagonal `diag` and its off-diagonal band `off`
    (None for a diagonal Q), and `quad_form(beta)` gives beta^T Q beta, in
    which an infinite diagonal entry times a coefficient that the factor
    holds at exactly 0 counts as 0.
    """
    if spec.kind is ModelKind.FUSED_LASSO:
        return _FusedPrior(spec)
    return _DiagonalPrior(spec)


def _gamma_shape(spec: ModelSpec, dataset: Dataset, two_block: bool) -> float:
    if two_block:
        return 0.5 * dataset.n + spec.alpha
    return 0.5 * (dataset.n + dataset.p + 2.0 * spec.alpha)


def _sum_of_squares(x, y, v, prior) -> float:
    """S(v) = ||y - X v||^2 + v^T Q v."""
    resid = y - x @ v
    return float(resid @ resid) + prior.quad_form(v)


def _sigma2_draw(s: float, xi: float, shape: float,
                 gen: np.random.Generator) -> float:
    """The residual-variance draw: (0.5 s + xi) / gamma(shape)."""
    scale = 0.5 * s + xi
    if scale <= 0.0:
        raise ValueError(f"non-positive residual-variance scale {scale}")
    return float(scale / gen.gamma(shape))


def _beta_draw(chol: np.ndarray, u: np.ndarray, sigma2: float,
               gen: np.random.Generator) -> np.ndarray:
    """Draw from N(A^-1 b, sigma2 A^-1) given A = L L^T and u = L^-1 b.

    L^-T (u + sqrt(sigma2) z) for z = standard_normal(p), formed in z's array.
    """
    z = gen.standard_normal(u.shape[0])
    z *= math.sqrt(sigma2)
    z += u
    return solve_lower_t(chol, z)


def sample_mvn_precision(b: np.ndarray, precision: np.ndarray, sigma2: float,
                         rng: RngStream) -> np.ndarray:
    """Draw from N(A^-1 b, sigma2 * A^-1) given the precision matrix A.

    One Cholesky factorization and two triangular solves; the draw is the
    dense block update's coefficient draw, made under one BLAS thread as in
    the chain. `precision` must be square and `b` a vector of its order
    (`DimensionMismatchError` otherwise). Only the lower triangle of
    `precision` is read; a NaN there or a non-finite entry of `b` raises
    `ValueError`, and an infinite diagonal entry pins its coefficient at 0.
    """
    _require_positive(sigma2=sigma2)
    b = np.asarray(b, dtype=np.float64)
    # the copy that the in-place factorization overwrites
    precision = np.array(precision, dtype=np.float64, order="F")
    if precision.ndim != 2:
        raise DimensionMismatchError("precision dimensions", 2, precision.ndim)
    if precision.shape[0] != precision.shape[1]:
        raise DimensionMismatchError("precision columns vs rows", *precision.shape)
    if precision.shape[0] < 1:
        raise DimensionMismatchError("precision order (at least 1)", 1, 0)
    if b.ndim != 1:
        raise DimensionMismatchError(f"b dimensions (b has shape {b.shape})", 1, b.ndim)
    if b.shape != precision.shape[:1]:
        raise DimensionMismatchError("b length vs precision order",
                                     precision.shape[0], b.size)
    if not np.isfinite(b).all():
        raise ValueError("b must be finite")
    if np.isnan(np.tril(precision)).any():
        raise ValueError("precision has a NaN in its lower triangle")
    with one_blas_thread():
        chol = cholesky_spd(precision, "precision")
        return _beta_draw(chol, solve_lower(chol, b), sigma2, rng.generator)


def _dense_block_sampler(spec: ModelSpec, dataset: Dataset, kernel: KernelKind):
    """Block update through the p x p posterior precision A = X^T X + Q.

    Returns `draw(beta, prior, gen) -> (new_beta, sigma2)` for the chain's
    prior object `prior`. When n > p, the columns of R from `qr_r` stand in
    for X and y. X^T X is kept in Fortran order, so that copying it into the
    scratch array, where each iteration assembles the posterior precision
    and LAPACK factors it in place, is one contiguous copy.

    Both scales are 0.5 S(v) + xi, at v = m (two-block) or at the incoming
    beta (three-block); the kernels differ only there and in the gamma
    shape, which keeps the dataset's n. The mean is computed before the
    gamma draw; it consumes no random numbers.
    """
    two_block = kernel is KernelKind.TWO_BLOCK
    shape = _gamma_shape(spec, dataset, two_block)
    xi = spec.xi
    x, y = dataset.x, dataset.y
    if dataset.n > dataset.p:
        r = qr_r(x, y)
        x, y = r[:, :-1], r[:, -1]
    gram = np.asfortranarray(x.T @ x)
    xty = x.T @ y
    a = np.empty_like(gram, order="F")

    def draw(beta, prior, gen):
        chol = cholesky_spd(add_prior_precision(gram, prior.diag, prior.off, out=a),
                            "posterior precision")
        u = solve_lower(chol, xty)
        v = solve_lower_t(chol, u) if two_block else beta
        sigma2 = _sigma2_draw(_sum_of_squares(x, y, v, prior), xi, shape, gen)
        return _beta_draw(chol, u, sigma2, gen), sigma2

    return draw


def _nspace_block_sampler(spec: ModelSpec, dataset: Dataset, kernel: KernelKind):
    """Block update through the n x n matrix I + X D X^T (diagonal priors only).

    With D = 1 / prior.diag and L the Cholesky factor of I + X D X^T, the
    two-block scale is 0.5 ||L^-1 y||^2 + xi and, with xi and delta standard
    normal, beta = u + D X^T L^-T L^-1 (y - X u - sigma delta) for
    u = sigma sqrt(D) xi has the dense update's mean and covariance. The
    matrix is formed by one syrk on X sqrt(D) in an n x p scratch array and
    factored in place in a Fortran-ordered n x n one; X^T X is never formed.
    """
    two_block = kernel is KernelKind.TWO_BLOCK
    shape = _gamma_shape(spec, dataset, two_block)
    xi = spec.xi
    x, y, n, p = dataset.x, dataset.y, dataset.n, dataset.p
    xs = np.empty_like(x)
    m = np.zeros((n, n), order="F")
    # the diagonal sits at the same flat stride in C and in Fortran order
    m_diag = m.ravel(order="K")[::n + 1]

    def draw(beta, prior, gen):
        d = 1.0 / prior.diag
        sqrt_d = np.sqrt(d)
        np.multiply(x, sqrt_d, out=xs)
        syrk_lower(xs, m)
        np.add(m_diag, 1.0, out=m_diag)
        chol = cholesky_spd(m, "n-space matrix I + X D X^T")
        if two_block:
            ly = solve_lower(chol, y)
            s = float(ly @ ly)
        else:
            s = _sum_of_squares(x, y, beta, prior)
        sigma2 = _sigma2_draw(s, xi, shape, gen)
        sigma = math.sqrt(sigma2)
        z = gen.standard_normal(p + n)
        u = (sigma * sqrt_d) * z[:p]
        v = x @ u + sigma * z[p:]
        w = solve_lower_t(chol, solve_lower(chol, y - v))
        return u + d * (x.T @ w), sigma2

    return draw


_BLOCK_SAMPLERS = {"dense": _dense_block_sampler, "nspace": _nspace_block_sampler}


def _block_update(spec: ModelSpec, dataset: Dataset) -> str:
    """The block update a chain runs: "nspace" for the group models when p > n."""
    if spec.kind.grouped and dataset.p > dataset.n:
        return "nspace"
    return "dense"


def initial_chain_state(dataset: Dataset) -> ChainState:
    """Deterministic start: zero coefficients and the response variance."""
    sigma2 = float(np.var(dataset.y, ddof=1)) if dataset.n > 1 else 1.0
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        sigma2 = 1.0
    return ChainState(beta=np.zeros(dataset.p), sigma2=sigma2)


def run_chain(kernel: KernelKind, spec: ModelSpec, dataset: Dataset,
              config: RunConfig, *, rng: RngStream | None = None,
              initial_state: ChainState | None = None) -> ChainOutput:
    """Run one Gibbs chain and store post-burn-in, thinned draws.

    The chain starts from `initial_state` (default `initial_chain_state`).
    Under `RunConfig(n_iter=1, burn_in=0, store_beta=True)` it runs one
    iteration, and the stored draws are the state that iteration hands on.
    The chain's setup and loop run under `one_blas_thread()`.
    """
    kernel = KernelKind(kernel)
    spec.validate_for(dataset)
    state = initial_chain_state(dataset) if initial_state is None else initial_state
    if state.beta.shape != (dataset.p,):
        raise DimensionMismatchError("beta length vs coefficient count",
                                     dataset.p, state.beta.size)
    update = _block_update(spec, dataset)
    rng = RngStream(config.seed) if rng is None else rng

    beta = state.beta
    sigma2 = state.sigma2
    gen = rng.generator
    prior = _chain_prior(spec)

    burn_in, thin = config.burn_in, config.thin
    sigma2_draws = np.empty(config.n_keep)
    beta_draws = np.empty((config.n_keep, dataset.p)) if config.store_beta else None
    # 0 * x is NaN exactly when x is +-inf or NaN, so one dot product checks beta
    zeros = np.zeros(dataset.p)

    with one_blas_thread() as threads:
        block = _BLOCK_SAMPLERS[update](spec, dataset, kernel)
        with np.errstate(**_QUIET):
            t0 = time.perf_counter()
            for it in range(config.n_iter):
                try:
                    prior.draw(beta, sigma2, gen)
                    beta, sigma2 = block(beta, prior, gen)
                except (ValueError, FactorizationError) as exc:
                    raise SamplerError(it, str(exc)) from exc
                if not (math.isfinite(sigma2) and math.isfinite(zeros.dot(beta))):
                    raise SamplerError(it, "non-finite draw")
                k = it - burn_in
                if k >= 0 and k % thin == thin - 1:
                    sigma2_draws[k // thin] = sigma2
                    if beta_draws is not None:
                        beta_draws[k // thin] = beta
            wall = time.perf_counter() - t0

    return ChainOutput(sigma2_draws=sigma2_draws, beta_draws=beta_draws,
                       wall_time_seconds=wall, kernel=kernel, model=spec,
                       seed=rng.seed, n=dataset.n, p=dataset.p, config=config,
                       block_update=update, blas_threads=threads)
