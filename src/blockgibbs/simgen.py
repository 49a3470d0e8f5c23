"""Synthetic dataset generators for the benchmark scenarios.

`ScenarioSpec` checks the scenario rules and generates the data; the
`gen_*` functions are shorthands for it. Draw order within each scenario is
fixed (design matrix, then true coefficients, then noise) so a seed pins the
whole dataset. The grouped polynomial design is used raw; only the
correlated-row design standardizes its columns.
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

    @property
    def groups(self) -> GroupStructure | None:
        """The group structure of the generated data: groups of five, none for s2."""
        if self.scenario is Scenario.ADJACENT_SIMILAR:
            return None
        return GroupStructure(np.full(self.p // 5, 5, dtype=np.int64))

    def generate(self, rng: RngStream | None = None) -> SimulatedDataset:
        rng = RngStream(self.seed) if rng is None else rng
        if self.scenario is Scenario.ADJACENT_SIMILAR:
            x, beta_star = _adjacent_similar(self.n, self.p, rng)
        else:
            # s1 has one t_2 signal per group; wide and tall share one
            # generator with five nonzero coefficients at any p
            k = self.p // 5
            n_nonzero = k if self.scenario is Scenario.GROUPED_POLY else 5
            x, beta_star = _grouped_poly(self.n, k, n_nonzero, rng)
        y = x @ beta_star + rng.generator.standard_normal(self.n)
        return SimulatedDataset(dataset=Dataset(y=y, x=x), beta_star=beta_star,
                                groups=self.groups)


def _poly_design(n: int, k: int, rng: RngStream) -> np.ndarray:
    """Order-5 polynomial expansion of k independent standard normal columns."""
    base = rng.generator.standard_normal((n, k))
    cols = np.empty((n, k, 5))
    cols[:, :, 0] = base
    for j in range(1, 5):
        cols[:, :, j] = cols[:, :, j - 1] * base
    return cols.reshape(n, 5 * k)


def _grouped_poly(n: int, k: int, n_nonzero: int, rng: RngStream):
    """Design and true coefficients: the first `n_nonzero` are t_2 draws."""
    x = _poly_design(n, k, rng)
    beta_star = np.zeros(5 * k)
    beta_star[:n_nonzero] = sample_student_t(2.0, rng, size=n_nonzero)
    return x, beta_star


def _adjacent_similar(n: int, p: int, rng: RngStream):
    """Design and true coefficients of scenario s2."""
    # one-factor representation of the equicorrelated rows: O(np) memory
    common = rng.generator.standard_normal((n, 1))
    own = rng.generator.standard_normal((n, p))
    x = standardize_columns(np.sqrt(0.2) * common + np.sqrt(0.8) * own)
    blk = p // 10
    beta_star = np.zeros(p)
    beta_star[:blk] = rng.generator.normal(1.0, 0.1, blk)
    beta_star[2 * blk:3 * blk] = rng.generator.normal(1.0, 0.1, blk)
    return x, beta_star


def gen_scenario1(n: int, k: int, rng: RngStream) -> SimulatedDataset:
    """Grouped polynomial design: p = 5k, first p/5 coefficients are t_2 draws."""
    return ScenarioSpec(Scenario.GROUPED_POLY, n, 5 * k).generate(rng)


def gen_extra_wide(n: int, p: int, rng: RngStream) -> SimulatedDataset:
    """Grouped polynomial design with exactly 5 nonzero coefficients.

    The `wide` and `tall` scenarios both use it; p is a positive multiple of 5.
    """
    return ScenarioSpec(Scenario.EXTRA_WIDE, n, p).generate(rng)


def gen_scenario2(n: int, p: int, rng: RngStream) -> SimulatedDataset:
    """Equicorrelated rows (correlation 0.2), standardized columns.

    The first and third blocks of p/10 coefficients are N(1, 0.1^2) draws;
    everything else is zero.
    """
    return ScenarioSpec(Scenario.ADJACENT_SIMILAR, n, p).generate(rng)


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
