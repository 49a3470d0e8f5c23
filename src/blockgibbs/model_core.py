"""Shrinkage-model data types and the shared deterministic constructions.

Covariance structure conventions:

* group models: the prior covariance of the coefficients is diagonal, so
  only its diagonal vector is ever built (O(p) memory, never a dense p x p).
* fused model: the prior *precision* is symmetric tridiagonal and is stored
  as two bands (:class:`SymmetricTridiagonal`).
* Inverse-Gamma(shape a, scale b) means density proportional to
  x^(-a-1) exp(-b/x) throughout.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._linalg import cholesky_spd, solve_lower, solve_lower_t
from .errors import DimensionMismatchError

# Scales below this floor would overflow their reciprocals; raising beats
# silently clamping a degenerate chain state.
SCALE_FLOOR = 1e-300


class ModelKind(str, enum.Enum):
    GROUP_LASSO = "group-lasso"
    SPARSE_GROUP_LASSO = "sparse-group-lasso"
    FUSED_LASSO = "fused-lasso"


@dataclass(frozen=True)
class Dataset:
    """Response vector and design matrix of a regression problem."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"design matrix must be 2-D, got ndim={x.ndim}")
        if y.ndim != 1:
            raise ValueError(f"response must be 1-D, got ndim={y.ndim}")
        if y.shape[0] != x.shape[0]:
            raise DimensionMismatchError("response length vs design rows",
                                         x.shape[0], y.shape[0])
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class GroupStructure:
    """Contiguous grouping of the coefficient vector."""

    group_sizes: np.ndarray

    def __post_init__(self):
        sizes = np.ascontiguousarray(self.group_sizes, dtype=np.int64)
        if sizes.ndim != 1 or sizes.shape[0] == 0:
            raise ValueError("group_sizes must be a nonempty 1-D integer vector")
        if np.any(sizes < 1):
            raise ValueError(f"every group size must be >= 1, got {sizes.tolist()}")
        object.__setattr__(self, "group_sizes", sizes)
        offsets = np.zeros(sizes.shape[0], dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        object.__setattr__(self, "offsets", offsets)

    @property
    def n_groups(self) -> int:
        return self.group_sizes.shape[0]

    @property
    def total_size(self) -> int:
        return int(self.group_sizes.sum())

    def check_covers(self, p: int) -> None:
        if self.total_size != p:
            raise DimensionMismatchError("group sizes sum vs coefficient count",
                                         p, self.total_size)


@dataclass(frozen=True)
class ModelSpec:
    """Which shrinkage prior to use, plus its hyperparameters.

    `lam` is the single penalty of the group lasso; `lam1`/`lam2` are the
    two penalties of the sparse group and fused lasso models. `alpha`/`xi`
    parameterize the Inverse-Gamma prior on the residual variance
    (both zero gives the flat improper prior).
    """

    kind: ModelKind
    alpha: float = 0.0
    xi: float = 0.0
    lam: float | None = None
    lam1: float | None = None
    lam2: float | None = None
    groups: GroupStructure | None = None

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.xi)
                and self.alpha >= 0 and self.xi >= 0):
            raise ValueError(f"alpha and xi must be finite and non-negative, "
                             f"got alpha={self.alpha}, xi={self.xi}")
        if self.kind is ModelKind.GROUP_LASSO:
            self._positive("lam", self.lam)
            self._need_groups()
        elif self.kind is ModelKind.SPARSE_GROUP_LASSO:
            self._positive("lam1", self.lam1)
            self._positive("lam2", self.lam2)
            self._need_groups()
        else:
            self._positive("lam1", self.lam1)
            self._positive("lam2", self.lam2)

    @staticmethod
    def _positive(name: str, value: float | None) -> None:
        if value is None or not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be > 0 and finite, got {value}")

    def _need_groups(self) -> None:
        if self.groups is None:
            raise ValueError(f"{self.kind.value} requires a GroupStructure")

    @classmethod
    def group_lasso(cls, lam: float, groups: GroupStructure,
                    alpha: float = 0.0, xi: float = 0.0) -> "ModelSpec":
        return cls(ModelKind.GROUP_LASSO, alpha, xi, lam=lam, groups=groups)

    @classmethod
    def sparse_group_lasso(cls, lam1: float, lam2: float, groups: GroupStructure,
                           alpha: float = 0.0, xi: float = 0.0) -> "ModelSpec":
        return cls(ModelKind.SPARSE_GROUP_LASSO, alpha, xi,
                   lam1=lam1, lam2=lam2, groups=groups)

    @classmethod
    def fused_lasso(cls, lam1: float, lam2: float,
                    alpha: float = 0.0, xi: float = 0.0) -> "ModelSpec":
        return cls(ModelKind.FUSED_LASSO, alpha, xi, lam1=lam1, lam2=lam2)

    def validate_for(self, dataset: Dataset) -> None:
        if self.groups is not None:
            self.groups.check_covers(dataset.p)
        if self.kind is ModelKind.FUSED_LASSO and dataset.p < 2:
            raise ValueError("fused lasso needs at least two coefficients (p >= 2)")


@dataclass(frozen=True)
class LatentScales:
    """Mixing variances of the scale-mixture representation.

    tau2 has one entry per group for the group models and one per
    coefficient for the fused model; gamma2 (sparse group only) has one per
    coefficient; omega2 (fused only) has one per successive difference.
    """

    tau2: np.ndarray
    gamma2: np.ndarray | None = None
    omega2: np.ndarray | None = None

    def __post_init__(self):
        for name in ("tau2", "gamma2", "omega2"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.ascontiguousarray(v, dtype=np.float64)
            if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
                raise ValueError(f"{name} entries must be finite and > 0")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class ChainState:
    """Current Gibbs state: coefficients, residual variance, latent scales."""

    beta: np.ndarray
    sigma2: float
    scales: LatentScales

    def __post_init__(self):
        beta = np.ascontiguousarray(self.beta, dtype=np.float64)
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta contains non-finite entries")
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma2", float(self.sigma2))


@dataclass(frozen=True)
class SymmetricTridiagonal:
    """Symmetric tridiagonal matrix stored as its two bands."""

    diag: np.ndarray
    off: np.ndarray

    def to_dense(self) -> np.ndarray:
        p = self.diag.shape[0]
        m = np.zeros((p, p))
        m[np.arange(p), np.arange(p)] = self.diag
        idx = np.arange(p - 1)
        m[idx, idx + 1] = self.off
        m[idx + 1, idx] = self.off
        return m


def _check_scales(name: str, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if np.any(values < SCALE_FLOOR):
        raise ValueError(
            f"{name} contains entries below {SCALE_FLOOR:g}; refusing to invert "
            "a numerically degenerate scale")
    return values


def build_group_cov(scales: LatentScales, groups: GroupStructure) -> np.ndarray:
    """Diagonal of the group-lasso prior covariance: tau_k^2 repeated m_k times.

    Returns the diagonal as a length-p vector; the dense matrix is never
    materialized.
    """
    tau2 = _check_scales("tau2", scales.tau2)
    if tau2.shape[0] != groups.n_groups:
        raise DimensionMismatchError("tau2 length vs group count",
                                     groups.n_groups, tau2.shape[0])
    return _kernels.expand_by_group(tau2, groups.group_sizes)


def build_sparse_group_cov(scales: LatentScales, groups: GroupStructure) -> np.ndarray:
    """Diagonal of the sparse-group prior covariance.

    Entry j of group k is (1/tau_k^2 + 1/gamma_j^2)^-1.
    """
    tau2 = _check_scales("tau2", scales.tau2)
    if tau2.shape[0] != groups.n_groups:
        raise DimensionMismatchError("tau2 length vs group count",
                                     groups.n_groups, tau2.shape[0])
    if scales.gamma2 is None:
        raise ValueError("sparse-group covariance needs gamma2 scales")
    gamma2 = _check_scales("gamma2", scales.gamma2)
    if gamma2.shape[0] != groups.total_size:
        raise DimensionMismatchError("gamma2 length vs coefficient count",
                                     groups.total_size, gamma2.shape[0])
    inv_tau_rep = _kernels.expand_by_group(1.0 / tau2, groups.group_sizes)
    return 1.0 / (inv_tau_rep + 1.0 / gamma2)


def build_fused_precision(scales: LatentScales) -> SymmetricTridiagonal:
    """Tridiagonal prior precision of the fused model.

    Diagonal entry j is 1/tau_j^2 + 1/omega_{j-1}^2 + 1/omega_j^2 with the
    boundary omega terms dropped at j = 1 and j = p; off-diagonal entry
    (j, j+1) is -1/omega_j^2.
    """
    tau2 = _check_scales("tau2", scales.tau2)
    p = tau2.shape[0]
    if p < 2:
        raise ValueError(f"fused precision needs p >= 2, got p={p}")
    if scales.omega2 is None:
        raise ValueError("fused precision needs omega2 scales")
    omega2 = _check_scales("omega2", scales.omega2)
    if omega2.shape[0] != p - 1:
        raise DimensionMismatchError("omega2 length vs p-1", p - 1, omega2.shape[0])
    diag, off = _kernels.fused_bands(1.0 / tau2, 1.0 / omega2)
    return SymmetricTridiagonal(diag, off)


def add_prior_precision(gram: np.ndarray,
                        prior_inv: np.ndarray | SymmetricTridiagonal,
                        out: np.ndarray | None = None) -> np.ndarray:
    """X^T X plus a prior precision given as a diagonal, bands, or dense matrix.

    The sum is written to `out`, a C- or Fortran-contiguous p x p array, when
    given, and to a fresh copy of `gram` otherwise; the bands are added
    through strided flat views, so a reused `out` keeps this allocation-free
    in the sampler loop.
    """
    p = gram.shape[0]
    if out is None:
        a = gram.copy()
    elif out.shape != gram.shape or not (out.flags.c_contiguous
                                         or out.flags.f_contiguous):
        raise ValueError("out must be a contiguous array shaped like gram")
    else:
        a = out
        np.copyto(a, gram)
    # a view in memory order: the diagonal and the two bands sit at the same
    # flat strides in C and in Fortran order
    flat = a.ravel(order="K")
    if isinstance(prior_inv, SymmetricTridiagonal):
        if prior_inv.diag.shape[0] != p:
            raise DimensionMismatchError("prior precision size vs p",
                                         p, prior_inv.diag.shape[0])
        flat[::p + 1] += prior_inv.diag
        flat[1::p + 1] += prior_inv.off
        flat[p::p + 1] += prior_inv.off
        return a
    prior_inv = np.asarray(prior_inv, dtype=np.float64)
    if prior_inv.ndim == 1:
        if prior_inv.shape[0] != p:
            raise DimensionMismatchError("prior precision size vs p",
                                         p, prior_inv.shape[0])
        flat[::p + 1] += prior_inv
        return a
    if prior_inv.shape != (p, p):
        raise DimensionMismatchError("prior precision size vs p",
                                     p, prior_inv.shape[0])
    a += prior_inv
    return a


def assemble_posterior_precision(dataset: Dataset,
                                 prior_cov_inverse) -> np.ndarray:
    """Posterior precision of the coefficients: X^T X + prior precision."""
    gram = dataset.x.T @ dataset.x
    return add_prior_precision(gram, prior_cov_inverse)


def prior_quad_form(prior_inv, beta: np.ndarray) -> float:
    """beta^T (prior precision) beta for any of the supported representations."""
    if isinstance(prior_inv, SymmetricTridiagonal):
        return _kernels.tridiag_quad_form(prior_inv.diag, prior_inv.off, beta)
    prior_inv = np.asarray(prior_inv, dtype=np.float64)
    if prior_inv.ndim == 1:
        return float(prior_inv @ (beta * beta))
    return float(beta @ prior_inv @ beta)


def marginal_sigma2_params(dataset: Dataset, prior_cov_inverse, alpha: float,
                           xi: float) -> tuple[float, float]:
    """Inverse-Gamma parameters of the residual variance given only the scales.

    shape = n/2 + alpha, scale = Y^T (I - X A^-1 X^T) Y / 2 + xi, computed
    as (Y^T Y - ||L^-1 X^T Y||^2) / 2 + xi from one Cholesky factor of A.
    """
    a = assemble_posterior_precision(dataset, prior_cov_inverse)
    chol = cholesky_spd(a, "posterior precision")
    u = solve_lower(chol, dataset.x.T @ dataset.y)
    yty = float(dataset.y @ dataset.y)
    scale = 0.5 * (yty - float(u @ u)) + xi
    shape = 0.5 * dataset.n + alpha
    if scale <= 0.0:
        raise ValueError(
            "residual-variance scale parameter is non-positive; supply xi > 0 "
            "or a response outside the fitted column space")
    if xi == 0.0 and scale < 1e-12 * max(yty, 1.0):
        warnings.warn("residual-variance scale parameter is nearly zero; "
                      "draws may be numerically degenerate", RuntimeWarning)
    return shape, scale


def conditional_sigma2_params(dataset: Dataset, beta: np.ndarray,
                              prior_cov_inverse, alpha: float,
                              xi: float) -> tuple[float, float]:
    """Inverse-Gamma parameters of the residual variance given the coefficients.

    shape = (n + p + 2 alpha)/2,
    scale = (||Y - X beta||^2 + beta^T (prior precision) beta + 2 xi)/2.
    """
    beta = np.asarray(beta, dtype=np.float64)
    resid = dataset.y - dataset.x @ beta
    scale = 0.5 * (float(resid @ resid) + prior_quad_form(prior_cov_inverse, beta)
                   + 2.0 * xi)
    shape = 0.5 * (dataset.n + dataset.p + 2.0 * alpha)
    if scale <= 0.0:
        raise ValueError(
            "residual-variance scale parameter is non-positive (exact fit with "
            "zero coefficients and xi = 0)")
    return shape, scale


@dataclass(frozen=True)
class BetaConditional:
    """Gaussian conditional of the coefficients, kept in precision form."""

    mean: np.ndarray
    precision: np.ndarray
    sigma2: float

    def covariance(self) -> np.ndarray:
        """Materialize sigma2 * precision^-1 (only on request)."""
        chol = cholesky_spd(self.precision, "posterior precision")
        inv = solve_lower_t(chol, solve_lower(chol, np.eye(self.precision.shape[0])))
        return self.sigma2 * inv


def beta_conditional_params(dataset: Dataset, prior_cov_inverse,
                            sigma2: float) -> BetaConditional:
    """Mean A^-1 X^T Y and covariance sigma2 * A^-1, without forming A^-1."""
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    a = assemble_posterior_precision(dataset, prior_cov_inverse)
    chol = cholesky_spd(a, "posterior precision")
    mean = solve_lower_t(chol, solve_lower(chol, dataset.x.T @ dataset.y))
    return BetaConditional(mean=mean, precision=a, sigma2=float(sigma2))
