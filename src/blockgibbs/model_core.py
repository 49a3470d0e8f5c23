"""Shrinkage-model data types: the data, the groups, the model and the chain state.

Each model's prior precision Q (diagonal for the group models, tridiagonal
for the fused lasso) is held by the chain's prior object in `samplers`, the
one place that knows how Q is stored. Inverse-Gamma(shape a, scale b) means
density proportional to x^(-a-1) exp(-b/x) throughout.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


class ModelKind(str, enum.Enum):
    GROUP_LASSO = "group-lasso"
    SPARSE_GROUP_LASSO = "sparse-group-lasso"
    FUSED_LASSO = "fused-lasso"

    @property
    def penalties(self) -> tuple[str, ...]:
        """The `ModelSpec` penalty fields the model takes."""
        return ("lam",) if self is ModelKind.GROUP_LASSO else ("lam1", "lam2")

    @property
    def grouped(self) -> bool:
        """Needs a `GroupStructure`; its prior precision is then diagonal."""
        return self is not ModelKind.FUSED_LASSO


@dataclass(frozen=True, eq=False)
class Dataset:
    """Response vector and design matrix of a regression problem.

    Compared and hashed by identity, as are the other records holding arrays.
    `x` and `y` are read-only, C-ordered float64 copies of the arrays passed
    in: the chains on a dataset share a reduction of them made by the first,
    so the caller may go on changing their own arrays.
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=np.float64, order="C")
        x = np.array(self.x, dtype=np.float64, order="C")
        if x.ndim != 2:
            raise ValueError(f"design matrix must be 2-D, got ndim={x.ndim}")
        if y.ndim != 1:
            raise ValueError(f"response must be 1-D, got ndim={y.ndim}")
        if y.shape[0] != x.shape[0]:
            raise DimensionMismatchError("response length vs design rows",
                                         x.shape[0], y.shape[0])
        for dim, size in (("n", x.shape[0]), ("p", x.shape[1])):
            if size < 1:
                raise ValueError(f"dataset needs {dim} >= 1, got {dim}={size}")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise ValueError("dataset contains non-finite entries")
        for name, array in (("y", y), ("x", x)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class GroupStructure:
    """Contiguous grouping of the coefficient vector.

    Compared and hashed by its sizes, so a `ModelSpec` that holds one
    compares and hashes too.
    """

    group_sizes: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.group_sizes)
        with np.errstate(invalid="ignore"):  # a non-finite size fails the check
            sizes = given.astype(np.int64)
        if (given.ndim != 1 or given.shape[0] == 0 or np.any(sizes != given)
                or np.any(sizes < 1)):
            raise ValueError(f"group sizes must be a nonempty list of positive "
                             f"integers, got {given.tolist()}")
        object.__setattr__(self, "group_sizes", sizes)
        offsets = np.zeros(sizes.shape[0], dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        object.__setattr__(self, "offsets", offsets)

    def __eq__(self, other):
        if not isinstance(other, GroupStructure):
            return NotImplemented
        return np.array_equal(self.group_sizes, other.group_sizes)

    def __hash__(self):
        return hash(tuple(self.group_sizes.tolist()))

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


def check_penalty(name: str, value: float | None) -> None:
    """The penalty rule: > 0, finite, and a square > 0 (the samplers use lam * lam).

    Raises ValueError naming `name`, a `ModelSpec` field or a CLI flag.
    """
    if value is None or not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be > 0 and finite, got {value}")
    if not value * value > 0:
        raise ValueError(f"{name} squared underflows to 0, got {value}")


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
        object.__setattr__(self, "kind", ModelKind(self.kind))
        if not (math.isfinite(self.alpha) and math.isfinite(self.xi)
                and self.alpha >= 0 and self.xi >= 0):
            raise ValueError(f"alpha and xi must be finite and non-negative, "
                             f"got alpha={self.alpha}, xi={self.xi}")
        for name in self.kind.penalties:
            check_penalty(name, getattr(self, name))
        if self.kind.grouped and self.groups is None:
            raise ValueError(f"{self.kind.value} requires a GroupStructure")
        if self.groups is not None and not isinstance(self.groups, GroupStructure):
            raise ValueError(f"groups must be a GroupStructure, got "
                             f"{type(self.groups).__name__}")

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
        """Check the spec against the data; the fused lasso ignores `groups`."""
        if self.kind.grouped:
            self.groups.check_covers(dataset.p)
        elif dataset.p < 2:
            raise ValueError("fused lasso needs at least two coefficients (p >= 2)")


@dataclass(frozen=True, eq=False)
class ChainState:
    """The state one Gibbs iteration hands the next, (beta, sigma2): both
    kernels draw the latent scales first, from the incoming beta and sigma2."""

    beta: np.ndarray
    sigma2: float

    def __post_init__(self):
        if np.ndim(self.beta) != 1:  # before ascontiguousarray makes a scalar 1-D
            raise ValueError(f"beta must be 1-D, got shape {np.shape(self.beta)}")
        beta = np.ascontiguousarray(self.beta, dtype=np.float64)
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta contains non-finite entries")
        if not (self.sigma2 > 0 and math.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma2", float(self.sigma2))
