"""Seeded random variate generation for the samplers and data generators.

All draws flow through :class:`RngStream`, a thin wrapper around numpy's
PCG64 generator. PCG64 has published constants and gives bit-identical
integer streams across platforms for a fixed seed, which the reproducibility
tests rely on. Streams for parallel replications are derived by seed
splitting (`RngStream.spawn` / `RngStream.from_key`), never by sharing a
stream between consumers.
"""
from __future__ import annotations

import math

import numpy as np

from . import _kernels

__all__ = [
    "RngStream",
    "sample_std_normal",
    "sample_gamma",
    "sample_student_t",
    "sample_inverse_gamma",
    "sample_inverse_gaussian",
    "sample_inverse_gaussian_vector",
]


class RngStream:
    """A seeded, splittable random stream.

    Two streams built from the same seed (and the same spawn key) produce
    identical draw sequences for identical call sequences. A stream must not
    be shared between threads; give each chain or replication its own.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = np.random.SeedSequence(self.seed) if _seq is None else _seq
        self.generator = np.random.Generator(np.random.PCG64(self._seq))

    @classmethod
    def from_key(cls, seed: int, *key: int) -> "RngStream":
        """Independent stream identified by (seed, key) without consuming draws."""
        seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
        return cls(seed, _seq=seq)

    def spawn(self, n: int) -> list["RngStream"]:
        """Split off `n` independent child streams."""
        return [RngStream(self.seed, _seq=s) for s in self._seq.spawn(n)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed}, key={self._seq.spawn_key})"


def _require_positive(**params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be a finite positive number, got {value}")


def sample_std_normal(rng: RngStream, size: int | None = None):
    return rng.generator.standard_normal(size)


def sample_gamma(shape: float, rate: float, rng: RngStream, size: int | None = None):
    """Gamma draw under the shape/rate convention (mean shape/rate)."""
    _require_positive(shape=shape, rate=rate)
    return rng.generator.gamma(shape, 1.0 / rate, size)


def sample_student_t(df: float, rng: RngStream, size: int | None = None):
    """Student-t via normal / sqrt(chi2 / df)."""
    _require_positive(df=df)
    z = rng.generator.standard_normal(size)
    w = rng.generator.chisquare(df, size)
    return z / np.sqrt(w / df)


def sample_inverse_gamma(shape: float, scale: float, rng: RngStream,
                         size: int | None = None):
    """Inverse-Gamma draw with density proportional to x^(-shape-1) exp(-scale/x)."""
    _require_positive(shape=shape, scale=scale)
    g = rng.generator.gamma(shape, 1.0, size)
    if np.any(g == 0.0):
        raise ValueError("gamma variate underflowed to zero; shape too small")
    return scale / g


def sample_inverse_gaussian(mu: float, lam: float, rng: RngStream,
                            size: int | None = None):
    """Inverse-Gaussian draw in the mean/shape parameterization.

    Mean `mu`, variance mu^3/lam, density proportional to
    x^(-3/2) exp(-lam (x - mu)^2 / (2 mu^2 x)). Uses the
    Michael-Schucany-Haas transformation: one chi-square plus one uniform
    per draw.
    """
    _require_positive(mu=mu, lam=lam)
    n = 1 if size is None else int(size)
    mu_vec = np.full(n, float(mu))
    out = sample_inverse_gaussian_vector(mu_vec, lam, rng)
    return float(out[0]) if size is None else out


def sample_inverse_gaussian_vector(mu: np.ndarray, lam: float,
                                   rng: RngStream) -> np.ndarray:
    """Independent inverse-Gaussian draws with a shared shape parameter.

    Entries of `mu` may be +inf; those take the exact large-mean limit
    (reciprocal of a Gamma(1/2, rate lam/2) variate), which is the limiting
    conditional used when a coefficient block is exactly zero. Consumes one
    normal vector followed by one uniform vector regardless of branches, so
    the stream position does not depend on the data.
    """
    _require_positive(lam=lam)
    mu = np.asarray(mu, dtype=np.float64)
    if np.any(np.isnan(mu)) or np.any(mu <= 0.0):
        raise ValueError("inverse-Gaussian mean parameters must be positive (inf allowed)")
    return _inverse_gaussian_draws(mu, float(lam), rng.generator)


def _inverse_gaussian_draws(mu: np.ndarray, lam: float,
                            gen: np.random.Generator) -> np.ndarray:
    """`sample_inverse_gaussian_vector` without the checks; the samplers'
    latent-scale update calls it directly."""
    q = mu.shape[0]
    return _kernels.ig_transform(mu, lam, gen.standard_normal(q), gen.random(q))
