"""Two-block and three-block Gibbs kernels plus the chain driver.

Both kernel families share the same latent-scale update, which uses the
incoming coefficients and residual variance. They differ only in how the
residual variance is drawn afterwards:

* two-block: residual variance from its conditional given the scales alone
  (marginal over the coefficients), then the coefficients;
* three-block: residual variance from its conditional given the incoming
  coefficients and the fresh scales, then the coefficients.

Either way an iteration performs exactly one Cholesky factorization, reused
for the variance draw (two-block) and for the coefficient draw. Each
conditional is written once, here: the prior precision from the latent
scales (`_prior_precision`), the two residual-variance scales and the
coefficient draw. `run_chain` is the one chain driver, and
`sample_mvn_precision` makes the dense update's coefficient draw.

Which matrix is factored is decided once per chain from the model and the
data shape:

* dense update (every model when p <= n, the fused lasso at any p): the
  p x p posterior precision X^T X + Q, with Q the prior precision;
* n-space update (group and sparse group lasso when p > n, where Q is
  diagonal with D = Q^-1): the n x n matrix I + X D X^T, following
  Bhattacharya, Chakraborty & Mallick (2016, Biometrika 103(4)). The
  two-block scale is the sum of squares 0.5 ||L^-1 y||^2 + xi.

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
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._linalg import cholesky_spd, solve_lower, solve_lower_t, syrk_lower
from .errors import DimensionMismatchError, FactorizationError, SamplerError
from .model_core import (
    ChainState,
    Dataset,
    ModelKind,
    ModelSpec,
    add_prior_precision,
    SymmetricTridiagonal,
)
from .rng_dist import RngStream, _inverse_gaussian_draws, _require_positive

__all__ = [
    "KernelKind",
    "RunConfig",
    "ChainOutput",
    "run_chain",
    "initial_chain_state",
    "map_jobs",
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
        for name in ("n_iter", "burn_in", "thin", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError(
                f"burn_in must satisfy 0 <= burn_in < n_iter, got "
                f"burn_in={self.burn_in}, n_iter={self.n_iter}")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ChainOutput:
    """Stored draws and run metadata for one chain.

    `wall_time_seconds` covers the iteration loop only (burn-in included),
    measured on a monotonic clock; dataset generation and I/O are excluded.
    `block_update` names the (sigma2, beta) update the chain ran: "dense" or
    "nspace".
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


def _latent_sampler(spec: ModelSpec):
    """Draw of the reciprocal latent scales given the incoming (beta, sigma2).

    Returns `draw(beta, sigma2, gen) -> tuple of reciprocal scales` with the
    model branch and the squared penalties resolved once.
    """
    kind = spec.kind
    if kind is ModelKind.FUSED_LASSO:
        lam1_sq, lam2_sq = spec.lam1 * spec.lam1, spec.lam2 * spec.lam2

        def draw_fused(beta, sigma2, gen):
            inv_tau2 = _ig_draws(lam1_sq, sigma2, beta * beta, gen)
            diffs = beta[1:] - beta[:-1]
            return (inv_tau2, _ig_draws(lam2_sq, sigma2, diffs * diffs, gen))

        return draw_fused
    offsets = spec.groups.offsets
    if kind is ModelKind.GROUP_LASSO:
        lam_sq = spec.lam * spec.lam

        def draw_group(beta, sigma2, gen):
            sq = _kernels.group_sqnorms(beta, offsets)
            return (_ig_draws(lam_sq, sigma2, sq, gen),)

        return draw_group
    lam1_sq, lam2_sq = spec.lam1 * spec.lam1, spec.lam2 * spec.lam2

    def draw_sparse(beta, sigma2, gen):
        sq = _kernels.group_sqnorms(beta, offsets)
        inv_tau2 = _ig_draws(lam1_sq, sigma2, sq, gen)
        return (inv_tau2, _ig_draws(lam2_sq, sigma2, beta * beta, gen))

    return draw_sparse


def _prior_precision(spec: ModelSpec, inv_scales: tuple[np.ndarray, ...]):
    """Prior precision (diagonal vector or tridiagonal bands) from reciprocals."""
    kind = spec.kind
    if kind is ModelKind.GROUP_LASSO:
        return _kernels.expand_by_group(inv_scales[0], spec.groups.group_sizes)
    if kind is ModelKind.SPARSE_GROUP_LASSO:
        rep = _kernels.expand_by_group(inv_scales[0], spec.groups.group_sizes)
        return rep + inv_scales[1]
    diag, off = _kernels.fused_bands(inv_scales[0], inv_scales[1])
    return SymmetricTridiagonal(diag, off)


def _gamma_shape(spec: ModelSpec, dataset: Dataset, two_block: bool) -> float:
    if two_block:
        return 0.5 * dataset.n + spec.alpha
    return 0.5 * (dataset.n + dataset.p + 2.0 * spec.alpha)


def _full_conditional_scale(x, y, xi: float, beta, prior_inv) -> float:
    """Three-block sigma2 scale: 0.5 (||y - X beta||^2 + beta^T Q beta) + xi."""
    resid = y - x @ beta
    if isinstance(prior_inv, SymmetricTridiagonal):
        quad = _kernels.tridiag_quad_form(prior_inv.diag, prior_inv.off, beta)
    else:
        quad = float(prior_inv @ (beta * beta))
    return 0.5 * (float(resid @ resid) + quad + 2.0 * xi)


def _checked_scale(scale: float) -> float:
    if scale <= 0.0:
        raise ValueError(f"non-positive residual-variance scale {scale}")
    return scale


def _beta_from_factor(chol: np.ndarray, u: np.ndarray, sigma2: float,
                      gen: np.random.Generator) -> np.ndarray:
    """Draw from N(A^-1 b, sigma2 A^-1) given A = L L^T and u = L^-1 b.

    The mean L^-T u plus sqrt(sigma2) L^-T z for z = standard_normal(p).
    """
    mean = solve_lower_t(chol, u)
    z = gen.standard_normal(u.shape[0])
    return mean + math.sqrt(sigma2) * solve_lower_t(chol, z)


def sample_mvn_precision(b: np.ndarray, precision: np.ndarray, sigma2: float,
                         rng: RngStream) -> np.ndarray:
    """Draw from N(A^-1 b, sigma2 * A^-1) given the precision matrix A.

    One Cholesky factorization, reused by the mean and the noise term; the
    draw is the dense block update's coefficient draw. `precision` must be
    square and `b` of its order (`DimensionMismatchError` otherwise).
    """
    _require_positive(sigma2=sigma2)
    b = np.asarray(b, dtype=np.float64)
    precision = np.asarray(precision, dtype=np.float64)
    if precision.ndim != 2:
        raise DimensionMismatchError("precision dimensions", 2, precision.ndim)
    if precision.shape[0] != precision.shape[1]:
        raise DimensionMismatchError("precision columns vs rows", *precision.shape)
    if b.shape != precision.shape[:1]:
        raise DimensionMismatchError("b length vs precision order",
                                     precision.shape[0], b.size)
    chol = cholesky_spd(precision, "precision")
    return _beta_from_factor(chol, solve_lower(chol, b), sigma2, rng.generator)


def _dense_block_sampler(spec: ModelSpec, dataset: Dataset, kernel: KernelKind):
    """Block update through the p x p posterior precision X^T X + Q.

    Returns `draw(beta, prior_inv, gen) -> (new_beta, sigma2)`. X^T X is kept
    in Fortran order, so that copying it into the scratch array, where each
    iteration assembles the posterior precision and LAPACK factors it in
    place, is one contiguous copy.
    """
    two_block = kernel is KernelKind.TWO_BLOCK
    shape = _gamma_shape(spec, dataset, two_block)
    xi = spec.xi
    x, y = dataset.x, dataset.y
    gram = np.asfortranarray(x.T @ x)
    xty, yty = x.T @ y, float(y @ y)
    a = np.empty_like(gram, order="F")

    def draw(beta, prior_inv, gen):
        chol = cholesky_spd(add_prior_precision(gram, prior_inv, out=a),
                            "posterior precision", overwrite=True)
        u = solve_lower(chol, xty)
        if two_block:
            scale = 0.5 * (yty - float(u @ u)) + xi
        else:
            scale = _full_conditional_scale(x, y, xi, beta, prior_inv)
        sigma2 = _checked_scale(scale) / gen.gamma(shape)
        return _beta_from_factor(chol, u, sigma2, gen), float(sigma2)

    return draw


def _nspace_block_sampler(spec: ModelSpec, dataset: Dataset, kernel: KernelKind):
    """Block update through the n x n matrix I + X D X^T (diagonal priors only).

    With D = 1 / prior_inv and L the Cholesky factor of I + X D X^T, the
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

    def draw(beta, prior_inv, gen):
        d = 1.0 / prior_inv
        sqrt_d = np.sqrt(d)
        np.multiply(x, sqrt_d, out=xs)
        syrk_lower(xs, m)
        np.add(m_diag, 1.0, out=m_diag)
        chol = cholesky_spd(m, "n-space matrix I + X D X^T", overwrite=True)
        if two_block:
            ly = solve_lower(chol, y)
            scale = 0.5 * float(ly @ ly) + xi
        else:
            scale = _full_conditional_scale(x, y, xi, beta, prior_inv)
        sigma2 = _checked_scale(scale) / gen.gamma(shape)
        sigma = math.sqrt(sigma2)
        z = gen.standard_normal(p + n)
        u = (sigma * sqrt_d) * z[:p]
        v = x @ u + sigma * z[p:]
        w = solve_lower_t(chol, solve_lower(chol, y - v))
        return u + d * (x.T @ w), float(sigma2)

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
    latent = _latent_sampler(spec)
    block = _BLOCK_SAMPLERS[update](spec, dataset, kernel)

    n_keep = (config.n_iter - config.burn_in) // config.thin
    sigma2_draws = np.empty(n_keep)
    beta_draws = np.empty((n_keep, dataset.p)) if config.store_beta else None

    with np.errstate(**_QUIET):
        t0 = time.perf_counter()
        for it in range(config.n_iter):
            try:
                prior_inv = _prior_precision(spec, latent(beta, sigma2, gen))
                beta, sigma2 = block(beta, prior_inv, gen)
            except (ValueError, FactorizationError) as exc:
                raise SamplerError(it, str(exc)) from exc
            if not (math.isfinite(sigma2) and np.isfinite(beta).all()):
                raise SamplerError(it, "non-finite draw")
            k = it - config.burn_in
            if k >= 0 and k % config.thin == config.thin - 1:
                sigma2_draws[k // config.thin] = sigma2
                if beta_draws is not None:
                    beta_draws[k // config.thin] = beta
        wall = time.perf_counter() - t0

    return ChainOutput(sigma2_draws=sigma2_draws, beta_draws=beta_draws,
                       wall_time_seconds=wall, kernel=kernel, model=spec,
                       seed=rng.seed, n=dataset.n, p=dataset.p, config=config,
                       block_update=update)


def map_jobs(worker, items, jobs: int = 1) -> list:
    """Run `worker` over `items`, optionally across processes.

    Results come back in the order of `items` regardless of completion
    order, so parallel benchmark output stays deterministic.
    """
    if jobs <= 1:
        return [worker(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items))
