"""Two-block and three-block Gibbs kernels plus the chain driver.

Both kernel families share the same latent-scale update, which uses the
incoming coefficients and residual variance. They differ only in how the
residual variance is drawn afterwards:

* two-block: residual variance from its conditional given the scales alone
  (marginal over the coefficients), then the coefficients;
* three-block: residual variance from its conditional given the incoming
  coefficients and the fresh scales, then the coefficients.

Either way a step performs exactly one Cholesky factorization of the
posterior precision, reused for the variance draw (two-block) and for the
coefficient mean and noise solves.

Draw-order contract per step (fixed for reproducibility): group scales
first, then per-coefficient / per-difference scales, then the residual
variance, then the coefficient noise vector.
"""
from __future__ import annotations

import enum
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._linalg import cholesky_spd, solve_lower, solve_lower_t
from .errors import FactorizationError, SamplerError
from .model_core import (
    ChainState,
    Dataset,
    LatentScales,
    ModelKind,
    ModelSpec,
    add_prior_precision,
    SymmetricTridiagonal,
)
from .rng_dist import RngStream

__all__ = [
    "KernelKind",
    "RunConfig",
    "ChainOutput",
    "run_chain",
    "initial_chain_state",
    "map_jobs",
    "step_2bg_group",
    "step_3bg_group",
    "step_2bg_sparse_group",
    "step_3bg_sparse_group",
    "step_2bg_fused",
    "step_3bg_fused",
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
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError(
                f"burn_in must satisfy 0 <= burn_in < n_iter, got "
                f"burn_in={self.burn_in}, n_iter={self.n_iter}")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")


@dataclass(frozen=True)
class ChainOutput:
    """Stored draws and run metadata for one chain.

    `wall_time_seconds` covers the iteration loop only (burn-in included),
    measured on a monotonic clock; dataset generation and I/O are excluded.
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


# The chain loop runs with every floating-point warning off: an all-zero
# coefficient block divides by zero on purpose (an infinite inverse-Gaussian
# mean), and non-finite draws are detected explicitly and raised as
# SamplerError. The caller's settings are restored when the loop exits.
_QUIET = dict(all="ignore")


@dataclass(frozen=True)
class _Workspace:
    """Per-dataset precomputations shared by every iteration.

    `gram` is kept in Fortran order so that copying it into the scratch
    array `a`, where each iteration assembles the posterior precision and
    LAPACK factors it in place, is one contiguous copy.
    """

    x: np.ndarray
    y: np.ndarray
    gram: np.ndarray
    xty: np.ndarray
    yty: float
    n: int
    p: int
    a: np.ndarray

    @classmethod
    def build(cls, dataset: Dataset) -> "_Workspace":
        gram = np.asfortranarray(dataset.x.T @ dataset.x)
        return cls(x=dataset.x, y=dataset.y, gram=gram,
                   xty=dataset.x.T @ dataset.y,
                   yty=float(dataset.y @ dataset.y),
                   n=dataset.n, p=dataset.p, a=np.empty_like(gram, order="F"))


def _ig_draws(lam_sq: float, sigma2: float, sq: np.ndarray,
              gen: np.random.Generator) -> np.ndarray:
    """Reciprocal-scale draws: IG(sqrt(lam^2 sigma2 / sq), lam^2) per entry.

    Entries with sq == 0 get an infinite mean parameter (a division by zero,
    so callers run this under np.errstate) and take the exact large-mean
    limit inside the transform (the zero-coefficient branch).
    """
    mu = np.sqrt(lam_sq * sigma2 / sq)
    q = mu.shape[0]
    return _kernels.ig_transform(mu, lam_sq, gen.standard_normal(q), gen.random(q))


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
    offsets, sizes = spec.groups.offsets, spec.groups.group_sizes
    if kind is ModelKind.GROUP_LASSO:
        lam_sq = spec.lam * spec.lam

        def draw_group(beta, sigma2, gen):
            sq = _kernels.group_sqnorms(beta, offsets, sizes)
            return (_ig_draws(lam_sq, sigma2, sq, gen),)

        return draw_group
    lam1_sq, lam2_sq = spec.lam1 * spec.lam1, spec.lam2 * spec.lam2

    def draw_sparse(beta, sigma2, gen):
        sq = _kernels.group_sqnorms(beta, offsets, sizes)
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


def _block_sampler(spec: ModelSpec, ws: _Workspace, kernel: KernelKind):
    """Draw of (sigma2, beta) given the fresh scales; one factorization total.

    Returns `draw(beta, prior_inv, gen) -> (new_beta, sigma2)` with the
    kernel branch and the gamma shape resolved once. The posterior precision
    is assembled in `ws.a` and factored in place there.
    """
    two_block = kernel is KernelKind.TWO_BLOCK
    fused = spec.kind is ModelKind.FUSED_LASSO
    if two_block:
        shape = 0.5 * ws.n + spec.alpha
    else:
        shape = 0.5 * (ws.n + ws.p + 2.0 * spec.alpha)
    xi = spec.xi

    def draw(beta, prior_inv, gen):
        a = add_prior_precision(ws.gram, prior_inv, out=ws.a)
        chol = cholesky_spd(a, "posterior precision", overwrite=True)
        u = solve_lower(chol, ws.xty)
        if two_block:
            scale = 0.5 * (ws.yty - float(u @ u)) + xi
        else:
            resid = ws.y - ws.x @ beta
            if fused:
                quad = _kernels.tridiag_quad_form(prior_inv.diag, prior_inv.off, beta)
            else:
                quad = float(prior_inv @ (beta * beta))
            scale = 0.5 * (float(resid @ resid) + quad + 2.0 * xi)
        if scale <= 0.0:
            raise ValueError(f"non-positive residual-variance scale {scale}")
        sigma2 = scale / gen.gamma(shape)
        mean = solve_lower_t(chol, u)
        z = gen.standard_normal(ws.p)
        new_beta = mean + math.sqrt(sigma2) * solve_lower_t(chol, z)
        return new_beta, float(sigma2)

    return draw


def _inv_scales_of(spec: ModelSpec, scales: LatentScales) -> tuple[np.ndarray, ...]:
    if spec.kind is ModelKind.GROUP_LASSO:
        return (1.0 / scales.tau2,)
    if spec.kind is ModelKind.SPARSE_GROUP_LASSO:
        return (1.0 / scales.tau2, 1.0 / scales.gamma2)
    return (1.0 / scales.tau2, 1.0 / scales.omega2)


def _scales_of(spec: ModelSpec, inv_scales: tuple[np.ndarray, ...]) -> LatentScales:
    if spec.kind is ModelKind.GROUP_LASSO:
        return LatentScales(tau2=1.0 / inv_scales[0])
    if spec.kind is ModelKind.SPARSE_GROUP_LASSO:
        return LatentScales(tau2=1.0 / inv_scales[0], gamma2=1.0 / inv_scales[1])
    return LatentScales(tau2=1.0 / inv_scales[0], omega2=1.0 / inv_scales[1])


def _step(kernel: KernelKind, state: ChainState, dataset: Dataset,
          spec: ModelSpec, rng: RngStream) -> ChainState:
    spec.validate_for(dataset)
    ws = _Workspace.build(dataset)
    gen = rng.generator
    with np.errstate(**_QUIET):
        inv_scales = _latent_sampler(spec)(state.beta, state.sigma2, gen)
        prior_inv = _prior_precision(spec, inv_scales)
        beta, sigma2 = _block_sampler(spec, ws, kernel)(state.beta, prior_inv, gen)
    return ChainState(beta=beta, sigma2=sigma2, scales=_scales_of(spec, inv_scales))


def _checked_kind(spec: ModelSpec, kind: ModelKind) -> None:
    if spec.kind is not kind:
        raise ValueError(f"expected a {kind.value} ModelSpec, got {spec.kind.value}")


def step_2bg_group(state: ChainState, dataset: Dataset, spec: ModelSpec,
                   rng: RngStream) -> ChainState:
    """One two-block step for the group lasso model."""
    _checked_kind(spec, ModelKind.GROUP_LASSO)
    return _step(KernelKind.TWO_BLOCK, state, dataset, spec, rng)


def step_3bg_group(state: ChainState, dataset: Dataset, spec: ModelSpec,
                   rng: RngStream) -> ChainState:
    """One three-block step for the group lasso model."""
    _checked_kind(spec, ModelKind.GROUP_LASSO)
    return _step(KernelKind.THREE_BLOCK, state, dataset, spec, rng)


def step_2bg_sparse_group(state: ChainState, dataset: Dataset, spec: ModelSpec,
                          rng: RngStream) -> ChainState:
    """One two-block step for the sparse group lasso model."""
    _checked_kind(spec, ModelKind.SPARSE_GROUP_LASSO)
    return _step(KernelKind.TWO_BLOCK, state, dataset, spec, rng)


def step_3bg_sparse_group(state: ChainState, dataset: Dataset, spec: ModelSpec,
                          rng: RngStream) -> ChainState:
    """One three-block step for the sparse group lasso model."""
    _checked_kind(spec, ModelKind.SPARSE_GROUP_LASSO)
    return _step(KernelKind.THREE_BLOCK, state, dataset, spec, rng)


def step_2bg_fused(state: ChainState, dataset: Dataset, spec: ModelSpec,
                   rng: RngStream) -> ChainState:
    """One two-block step for the fused lasso model."""
    _checked_kind(spec, ModelKind.FUSED_LASSO)
    return _step(KernelKind.TWO_BLOCK, state, dataset, spec, rng)


def step_3bg_fused(state: ChainState, dataset: Dataset, spec: ModelSpec,
                   rng: RngStream) -> ChainState:
    """One three-block step for the fused lasso model."""
    _checked_kind(spec, ModelKind.FUSED_LASSO)
    return _step(KernelKind.THREE_BLOCK, state, dataset, spec, rng)


def initial_chain_state(spec: ModelSpec, dataset: Dataset) -> ChainState:
    """Deterministic start: zero coefficients, response variance, unit scales."""
    p = dataset.p
    sigma2 = float(np.var(dataset.y, ddof=1)) if dataset.n > 1 else 1.0
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        sigma2 = 1.0
    if spec.kind is ModelKind.GROUP_LASSO:
        scales = LatentScales(tau2=np.ones(spec.groups.n_groups))
    elif spec.kind is ModelKind.SPARSE_GROUP_LASSO:
        scales = LatentScales(tau2=np.ones(spec.groups.n_groups),
                              gamma2=np.ones(p))
    else:
        scales = LatentScales(tau2=np.ones(p), omega2=np.ones(p - 1))
    return ChainState(beta=np.zeros(p), sigma2=sigma2, scales=scales)


def run_chain(kernel: KernelKind, spec: ModelSpec, dataset: Dataset,
              config: RunConfig, *, rng: RngStream | None = None,
              initial_state: ChainState | None = None,
              freeze_scales: bool = False) -> ChainOutput:
    """Run one Gibbs chain and store post-burn-in, thinned draws.

    `freeze_scales` is a test hook: it skips the latent-scale update so the
    (sigma2, beta) block is drawn with the scales pinned at their values in
    `initial_state` (under the two-block kernel this makes the stored draws
    i.i.d. from the exact conditional posterior).
    """
    kernel = KernelKind(kernel)
    spec.validate_for(dataset)
    ws = _Workspace.build(dataset)
    state = initial_chain_state(spec, dataset) if initial_state is None else initial_state
    rng = RngStream(config.seed) if rng is None else rng

    beta = state.beta
    sigma2 = state.sigma2
    gen = rng.generator
    latent = _latent_sampler(spec)
    block = _block_sampler(spec, ws, kernel)
    if freeze_scales:
        prior_inv = _prior_precision(spec, _inv_scales_of(spec, state.scales))

    n_keep = (config.n_iter - config.burn_in) // config.thin
    sigma2_draws = np.empty(n_keep)
    beta_draws = np.empty((n_keep, ws.p)) if config.store_beta else None

    _kernels.warm_up()  # keep JIT compilation out of the timed loop
    with np.errstate(**_QUIET):
        t0 = time.perf_counter()
        for it in range(config.n_iter):
            try:
                if not freeze_scales:
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
                       seed=rng.seed, n=ws.n, p=ws.p, config=config)


def map_jobs(worker, items, jobs: int = 1) -> list:
    """Run `worker` over `items`, optionally across processes.

    Results come back in the order of `items` regardless of completion
    order, so parallel benchmark output stays deterministic.
    """
    if jobs <= 1:
        return [worker(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items))
