"""Synthetic dataset generators for the benchmark scenarios.

Draw order within each generator is fixed (design matrix, then true
coefficients, then noise) so a seed pins the whole dataset. The grouped
polynomial design is used raw; only the correlated-row design standardizes
its columns.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .model_core import Dataset, GroupStructure
from .rng_dist import RngStream, sample_student_t

__all__ = [
    "Scenario",
    "ScenarioSpec",
    "SimulatedDataset",
    "gen_scenario1",
    "gen_scenario2",
    "gen_extra_wide",
    "gen_extra_tall",
    "standardize_columns",
]


class Scenario(str, enum.Enum):
    GROUPED_POLY = "s1"
    ADJACENT_SIMILAR = "s2"
    EXTRA_WIDE = "wide"
    EXTRA_TALL = "tall"


@dataclass(frozen=True)
class SimulatedDataset:
    """Generated dataset plus the ground truth behind it."""

    dataset: Dataset
    beta_star: np.ndarray
    groups: GroupStructure | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    """One benchmark cell: scenario, dimensions, and seed."""

    scenario: Scenario
    n: int
    p: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        if self.scenario is Scenario.ADJACENT_SIMILAR:
            if self.n < 2:
                raise ValueError(f"scenario s2 standardizes columns and needs "
                                 f"n >= 2, got {self.n}")
            if self.p % 10 != 0:
                raise ValueError(f"scenario s2 needs p divisible by 10, got {self.p}")
        elif self.p % 5 != 0:
            raise ValueError(
                f"scenario {self.scenario.value} needs p divisible by 5, got {self.p}")

    def generate(self, rng: RngStream | None = None) -> SimulatedDataset:
        rng = RngStream(self.seed) if rng is None else rng
        if self.scenario is Scenario.GROUPED_POLY:
            return gen_scenario1(self.n, self.p // 5, rng)
        if self.scenario is Scenario.ADJACENT_SIMILAR:
            return gen_scenario2(self.n, self.p, rng)
        if self.scenario is Scenario.EXTRA_WIDE:
            return gen_extra_wide(self.n, self.p, rng)
        return gen_extra_tall(self.n, self.p, rng)


def _poly_design(n: int, k: int, rng: RngStream) -> np.ndarray:
    """Order-5 polynomial expansion of k independent standard normal columns."""
    base = rng.generator.standard_normal((n, k))
    cols = np.empty((n, k, 5))
    cols[:, :, 0] = base
    for j in range(1, 5):
        cols[:, :, j] = cols[:, :, j - 1] * base
    return cols.reshape(n, 5 * k)


def _grouped_poly(n: int, k: int, n_nonzero: int, rng: RngStream,
                  noise: bool) -> SimulatedDataset:
    x = _poly_design(n, k, rng)
    p = 5 * k
    beta_star = np.zeros(p)
    beta_star[:n_nonzero] = sample_student_t(2.0, rng, size=n_nonzero)
    y = x @ beta_star
    if noise:
        y = y + rng.generator.standard_normal(n)
    return SimulatedDataset(dataset=Dataset(y=y, x=x), beta_star=beta_star,
                            groups=GroupStructure(np.full(k, 5, dtype=np.int64)))


def gen_scenario1(n: int, k: int, rng: RngStream, *,
                  noise: bool = True) -> SimulatedDataset:
    """Grouped polynomial design: p = 5k, first p/5 coefficients are t_2 draws.

    `noise=False` is a test hook that suppresses the response noise so
    y = X beta_star exactly.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return _grouped_poly(n, k, n_nonzero=k, rng=rng, noise=noise)


def gen_extra_wide(n: int, p: int, rng: RngStream, *,
                   noise: bool = True) -> SimulatedDataset:
    """Grouped polynomial design with exactly 5 nonzero coefficients, any p."""
    if p % 5 != 0 or p < 5:
        raise ValueError(f"p must be a positive multiple of 5, got {p}")
    return _grouped_poly(n, p // 5, n_nonzero=5, rng=rng, noise=noise)


def gen_extra_tall(n: int, p: int, rng: RngStream, *,
                   noise: bool = True) -> SimulatedDataset:
    """Same scheme as the wide generator, intended for small p and large n."""
    return gen_extra_wide(n, p, rng, noise=noise)


def gen_scenario2(n: int, p: int, rng: RngStream, *,
                  noise: bool = True) -> SimulatedDataset:
    """Equicorrelated rows (correlation 0.2), standardized columns.

    The first and third blocks of p/10 coefficients are N(1, 0.1^2) draws;
    everything else is zero.
    """
    if p % 10 != 0:
        raise ValueError(f"p must be divisible by 10, got {p}")
    if n < 2:
        raise ValueError("n must be at least 2 to standardize columns")
    # one-factor representation of the equicorrelated rows: O(np) memory
    common = rng.generator.standard_normal((n, 1))
    own = rng.generator.standard_normal((n, p))
    x = np.sqrt(0.2) * common + np.sqrt(0.8) * own
    x = standardize_columns(x)
    blk = p // 10
    beta_star = np.zeros(p)
    beta_star[:blk] = rng.generator.normal(1.0, 0.1, blk)
    beta_star[2 * blk:3 * blk] = rng.generator.normal(1.0, 0.1, blk)
    y = x @ beta_star
    if noise:
        y = y + rng.generator.standard_normal(n)
    return SimulatedDataset(dataset=Dataset(y=y, x=x), beta_star=beta_star)


def standardize_columns(x: np.ndarray) -> np.ndarray:
    """Center each column and rescale it to squared Euclidean norm n."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    centered = x - x.mean(axis=0)
    norms = np.sqrt((centered * centered).sum(axis=0))
    bad = np.nonzero(norms == 0.0)[0]
    if bad.size:
        raise ValueError(f"column {bad[0]} is constant and cannot be standardized")
    return centered * (np.sqrt(n) / norms)
