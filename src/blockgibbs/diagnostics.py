"""Mixing and efficiency metrics for stored chains.

Autocorrelations use the biased (divide by N) covariance denominator, which
keeps the autocovariance sequence positive definite for the truncation rule.
The effective sample size uses Geyer's initial monotone positive sequence
(Geyer 1992, Statistical Science 7(4)) over even-lag pairs and is clamped
to (0, N]. `diagnose` reads rho_1 and the ESS from one pass of numpy's FFT.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng_dist import _require_integers
from .samplers import ChainOutput

__all__ = [
    "autocorr",
    "ess_univariate",
    "ess_per_second",
    "summarize",
    "Summary",
    "DiagnosticsReport",
    "diagnose",
    "MIN_ESS_DRAWS",
]

# Shortest series the ESS estimator accepts.
MIN_ESS_DRAWS = 100


def _autocovariances(x: np.ndarray) -> np.ndarray:
    """All-lag autocovariances with the 1/N denominator, via FFT at length 2N."""
    n = x.shape[0]
    f = np.fft.rfft(x - x.mean(), 2 * n)
    return np.fft.irfft(f * np.conj(f), 2 * n)[:n] / n


def _autocorrelations(series, min_len: int, what: str) -> np.ndarray:
    """All N autocorrelations of a checked series; `what` names the metric."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be 1-D")
    if x.shape[0] < min_len:
        raise ValueError(f"series too short: need at least {min_len} values, "
                         f"got {x.shape[0]}")
    if not np.isfinite(x).all():
        raise ValueError("series must be finite")
    acov = _autocovariances(x)
    if acov[0] <= 0.0:
        raise ValueError(f"zero variance: {what} undefined for a constant series")
    return acov / acov[0]


def _ess(rho: np.ndarray) -> float:
    """N / (1 + 2 sum rho_k) under Geyer's truncation, from all N autocorrelations."""
    n = rho.shape[0]
    n_pairs = n // 2
    pair = rho[0:2 * n_pairs:2] + rho[1:2 * n_pairs:2]
    nonpos = np.nonzero(pair <= 0.0)[0]
    keep = int(nonpos[0]) if nonpos.size else n_pairs
    iact = 2.0 * float(np.minimum.accumulate(pair[:keep]).sum()) - 1.0
    return n / max(iact, 1.0)


def autocorr(series, lag: int) -> float:
    """Sample autocorrelation at the given lag (mean-centered, biased denominator)."""
    _require_integers(lag=lag)
    if lag < 0:
        raise ValueError("lag must be non-negative")
    return float(_autocorrelations(series, lag + 2, "autocorrelation")[lag])


def ess_univariate(series) -> float:
    """Effective sample size N / (1 + 2 sum rho_k).

    The infinite sum is truncated by Geyer's rule: sum even/odd lag pairs,
    keep the initial run of positive pairs, force the kept run to be
    non-increasing, and stop there. The result is clamped to (0, N].
    """
    return _ess(_autocorrelations(series, MIN_ESS_DRAWS, "ESS"))


def ess_per_second(ess: float, wall_time_seconds: float) -> float:
    """Effective draws per second of sampler wall time."""
    if not wall_time_seconds > 0.0:
        raise ValueError(f"wall time must be > 0, got {wall_time_seconds}")
    return ess / wall_time_seconds


@dataclass(frozen=True)
class Summary:
    """Location/scale/quantile summary of one scalar component."""

    mean: float
    sd: float
    q025: float
    median: float
    q975: float


def summarize(series) -> Summary:
    """Sample mean/sd plus 2.5%/50%/97.5% quantiles of a 1-D series.

    Quantiles use numpy's default linear interpolation between order
    statistics; sd uses the ddof=1 convention (0 for a single value).
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("series must be 1-D")
    if x.size == 0:
        raise ValueError("cannot summarize an empty series")
    if not np.isfinite(x).all():
        raise ValueError("series must be finite")
    sd = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
    q025, med, q975 = np.quantile(x, [0.025, 0.5, 0.975])
    return Summary(mean=float(x.mean()), sd=sd, q025=float(q025),
                   median=float(med), q975=float(q975))


@dataclass(frozen=True)
class DiagnosticsReport:
    """Mixing metrics and posterior summary of the residual-variance chain."""

    rho1: float
    ess: float
    ess_per_second: float
    sigma2: Summary


def diagnose(output: ChainOutput) -> DiagnosticsReport:
    """Diagnostics of a finished chain's sigma2 draws."""
    draws = output.sigma2_draws
    rho = _autocorrelations(draws, MIN_ESS_DRAWS, "ESS")
    ess = _ess(rho)
    return DiagnosticsReport(
        rho1=float(rho[1]),
        ess=ess,
        ess_per_second=ess_per_second(ess, output.wall_time_seconds),
        sigma2=summarize(draws),
    )
