import math

import numpy as np
import pytest
from scipy.signal import lfilter

from blockgibbs import (
    Dataset,
    GroupStructure,
    KernelKind,
    ModelSpec,
    RunConfig,
    autocorr,
    diagnose,
    ess_per_second,
    ess_univariate,
    run_chain,
    summarize,
)
from blockgibbs.diagnostics import _autocovariances


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    eps = np.random.default_rng(seed).standard_normal(n)
    return lfilter([1.0], [1.0, -phi], eps)


def test_autocorr_iid_near_zero():
    x = np.random.default_rng(0).standard_normal(100_000)
    assert abs(autocorr(x, 1)) < 4 / math.sqrt(x.size)


def test_autocorr_alternating_series():
    x = np.tile([1.0, -1.0], 5_000)
    rho1 = autocorr(x, 1)
    assert abs(rho1 + 1.0) < 1e-3


def test_autocorr_ar1():
    x = ar1(0.5, 1_000_000, seed=1)
    se = math.sqrt((1 - 0.25) / x.size)
    assert abs(autocorr(x, 1) - 0.5) < 4 * se


def test_autocorr_lag_zero_is_one():
    x = np.random.default_rng(2).standard_normal(500)
    assert autocorr(x, 0) == 1.0


def test_autocorr_errors():
    with pytest.raises(ValueError, match="zero variance"):
        autocorr(np.ones(200), 1)
    with pytest.raises(ValueError, match="too short"):
        autocorr(np.arange(3.0), 5)
    with pytest.raises(ValueError, match="non-negative"):
        autocorr(np.arange(200.0), -1)


def test_ess_iid():
    x = np.random.default_rng(3).standard_normal(100_000)
    ratio = ess_univariate(x) / x.size
    assert 0.9 <= ratio <= 1.1


@pytest.mark.parametrize("phi,rel_tol", [(0.5, 0.10), (0.9, 0.15)])
def test_ess_ar1(phi, rel_tol):
    x = ar1(phi, 1_000_000, seed=4)
    target = (1 - phi) / (1 + phi)
    ratio = ess_univariate(x) / x.size
    assert abs(ratio - target) <= rel_tol * target


def test_ess_clamped_to_series_length():
    x = np.tile([1.0, -1.0], 5_000) + 1e-3 * np.random.default_rng(5).standard_normal(10_000)
    assert ess_univariate(x) == x.size


def test_ess_requires_min_length():
    with pytest.raises(ValueError, match="too short"):
        ess_univariate(np.arange(50.0))
    with pytest.raises(ValueError, match="zero variance"):
        ess_univariate(np.zeros(200))


def test_ess_affine_invariance():
    x = ar1(0.4, 5_000, seed=6)
    base = ess_univariate(x)
    # power-of-two rescaling commutes with every float operation involved
    assert ess_univariate(4.0 * x) == base
    assert ess_univariate(-2.0 * x) == base
    assert ess_univariate(x + 7.5) == pytest.approx(base, rel=1e-9)


def test_rho1_matches_ess_internal_term():
    x = ar1(0.3, 2_000, seed=7)
    acov = _autocovariances(x)
    assert autocorr(x, 1) == acov[1] / acov[0]


def test_ess_per_second_values():
    assert ess_per_second(900.0, 2.0) == 450.0
    assert ess_per_second(1.0, 1e-3) == pytest.approx(1000.0)
    assert ess_per_second(1.0, 0.5) == 2 * ess_per_second(1.0, 1.0)
    with pytest.raises(ValueError):
        ess_per_second(10.0, 0.0)


def test_summarize_small_series():
    s = summarize([1.0, 2.0, 3.0])
    assert s.mean == 2.0
    assert s.median == 2.0


def test_summarize_constant_series():
    s = summarize(np.full(10, 3.25))
    assert s.sd == 0.0
    assert s.q025 == s.q975 == 3.25


def test_summarize_normal_quantile():
    x = np.random.default_rng(8).standard_normal(1_000_000)
    assert abs(summarize(x).q975 - 1.959964) < 0.01


def test_diagnose_builds_full_report():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((12, 2))
    ds = Dataset(y=x @ np.array([1.0, -1.0]) + rng.standard_normal(12), x=x)
    spec = ModelSpec.group_lasso(1.0, GroupStructure(np.array([1, 1])))
    out = run_chain(KernelKind.TWO_BLOCK, spec, ds,
                    RunConfig(n_iter=600, burn_in=100, seed=1, store_beta=True))
    rep = diagnose(out)
    assert -1.0 <= rep.rho1 <= 1.0
    assert 0.0 < rep.ess <= out.sigma2_draws.size
    assert rep.ess_per_second > 0.0
    assert rep.sigma2.q025 <= rep.sigma2.median <= rep.sigma2.q975
