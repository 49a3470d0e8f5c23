import math

import numpy as np
import pytest

from blockgibbs import (
    DimensionMismatchError,
    RngStream,
    sample_inverse_gamma,
    sample_inverse_gaussian,
    sample_inverse_gaussian_vector,
    sample_mvn_precision,
    sample_student_t,
)

# median of an inverse-gamma(2, 2): 2 / gammaincinv(2, 0.5)
# (from tests/compute_oracles.py)
INV_GAMMA_2_2_MEDIAN = 1.1916486948


def test_same_seed_same_draws():
    a, b = RngStream(99), RngStream(99)
    np.testing.assert_array_equal(a.generator.standard_normal(64),
                                  b.generator.standard_normal(64))
    np.testing.assert_array_equal(
        sample_inverse_gaussian(2.0, 3.0, a, size=64),
        sample_inverse_gaussian(2.0, 3.0, b, size=64))


def test_from_key_is_deterministic():
    x = RngStream.from_key(7, 1, 2).generator.standard_normal(16)
    y = RngStream.from_key(7, 1, 2).generator.standard_normal(16)
    z = RngStream.from_key(7, 1, 3).generator.standard_normal(16)
    np.testing.assert_array_equal(x, y)
    assert not np.array_equal(x, z)


# ---------------------------------------------------------------------------
# inverse-Gaussian
# ---------------------------------------------------------------------------

def test_inverse_gaussian_moments():
    mu, lam, n = 2.0, 3.0, 100_000
    draws = sample_inverse_gaussian(mu, lam, RngStream(1), size=n)
    var = mu ** 3 / lam
    assert abs(draws.mean() - mu) < 4 * math.sqrt(var / n)
    # variance of the sample variance needs the fourth central moment:
    # kurtosis of an inverse-Gaussian is 15 mu / lam
    mu4 = (15 * mu / lam + 3) * var ** 2
    assert abs(draws.var(ddof=1) - var) < 4 * math.sqrt((mu4 - var ** 2) / n)


def test_inverse_gaussian_reciprocal_moment():
    mu, lam, n = 2.0, 3.0, 100_000
    draws = sample_inverse_gaussian(mu, lam, RngStream(2), size=n)
    target = 1 / mu + 1 / lam
    var_recip = 1 / (mu * lam) + 2 / lam ** 2
    assert abs((1.0 / draws).mean() - target) < 4 * math.sqrt(var_recip / n)


def test_inverse_gaussian_concentrates_for_large_shape():
    draws = sample_inverse_gaussian(5.0, 1e8, RngStream(3), size=10_000)
    assert draws.std(ddof=1) < 0.01
    assert abs(draws.mean() - 5.0) < 0.01


def test_inverse_gaussian_rejects_bad_params():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        sample_inverse_gaussian(0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_inverse_gaussian(1.0, math.inf, rng)
    with pytest.raises(ValueError):
        sample_inverse_gaussian(math.nan, 1.0, rng)


@pytest.mark.parametrize("size", [2.5, True, -1])
def test_inverse_gaussian_rejects_a_size_that_is_not_a_count(size):
    # int(size) used to turn 2.5 into 2 draws and True into 1
    with pytest.raises(ValueError):
        sample_inverse_gaussian(1.0, 2.0, RngStream(0), size=size)


SAMPLERS = {
    "student_t": lambda rng, size: sample_student_t(3.0, rng, size),
    "inverse_gamma": lambda rng, size: sample_inverse_gamma(2.0, 1.0, rng, size),
    "inverse_gaussian": lambda rng, size: sample_inverse_gaussian(1.0, 2.0, rng, size),
}


@pytest.mark.parametrize("name", SAMPLERS)
@pytest.mark.parametrize("size", [2.5, True, -1, "3", [2], (2, 2.5), (2, -1)])
def test_every_sampler_rejects_a_bad_size_with_one_error(name, size):
    # the siblings of sample_inverse_gaussian used to raise numpy's TypeError
    with pytest.raises(ValueError, match="size must be None, a non-negative integer"):
        SAMPLERS[name](RngStream(0), size)


@pytest.mark.parametrize("name", SAMPLERS)
def test_every_sampler_takes_a_shape_tuple(name):
    draws = SAMPLERS[name](RngStream(4), (2, 3))
    assert draws.shape == (2, 3)
    flat = SAMPLERS[name](RngStream(4), 6)
    assert SAMPLERS[name](RngStream(4), np.int64(6)).tobytes() == flat.tobytes()
    if name == "inverse_gaussian":  # one vector draw over all the entries
        assert draws.tobytes() == flat.tobytes()
    assert SAMPLERS[name](RngStream(4), (0,)).shape == (0,)
    assert isinstance(SAMPLERS[name](RngStream(4), None), float)


@pytest.mark.parametrize("mu", [np.ones((2, 2)), np.ones((20, 2)), np.float64(1.0)])
def test_inverse_gaussian_vector_rejects_a_mean_that_is_not_1d(mu):
    with pytest.raises(ValueError, match="mu must be 1-D, got shape"):
        sample_inverse_gaussian_vector(mu, 1.0, RngStream(0))


def test_inverse_gaussian_stress_positivity():
    # extreme parameter corners must stay strictly positive and finite
    for seed, (mu, lam) in enumerate([(1e-6, 1e6), (1e6, 1e-6)]):
        rng = RngStream(seed)
        for _ in range(5):
            draws = sample_inverse_gaussian(mu, lam, rng, size=2_000_000)
            assert np.all(draws > 0.0)
            assert np.all(np.isfinite(draws))


def test_inverse_gaussian_vector_limit_branch():
    # infinite mean parameter takes the large-shape limit lam / chi2 exactly
    lam = 2.5
    mu = np.array([np.inf, 1.0, np.inf])
    mirror = RngStream(17)
    z = mirror.generator.standard_normal(3)
    mirror.generator.random(3)  # uniforms consumed even by the limit branch
    draws = sample_inverse_gaussian_vector(mu, lam, RngStream(17))
    np.testing.assert_array_equal(draws[[0, 2]], lam / (z[[0, 2]] ** 2))
    assert draws[1] > 0.0


# ---------------------------------------------------------------------------
# inverse-gamma, student-t
# ---------------------------------------------------------------------------

def test_inverse_gamma_mean():
    n = 100_000
    draws = sample_inverse_gamma(3.0, 4.0, RngStream(4), size=n)
    # mean b/(a-1) = 2, variance b^2/((a-1)^2 (a-2)) = 4
    assert abs(draws.mean() - 2.0) < 4 * math.sqrt(4.0 / n)


def test_inverse_gamma_median():
    n = 100_000
    draws = sample_inverse_gamma(2.0, 2.0, RngStream(5), size=n)
    med = INV_GAMMA_2_2_MEDIAN
    density_at_med = 4.0 / med ** 3 * math.exp(-2.0 / med)
    se = 1.0 / (2.0 * density_at_med * math.sqrt(n))
    assert abs(np.median(draws) - med) < 4 * se


def test_inverse_gamma_reciprocal_is_gamma():
    n = 100_000
    a, b = 3.0, 4.0
    draws = sample_inverse_gamma(a, b, RngStream(6), size=n)
    recip = 1.0 / draws
    assert abs(recip.mean() - a / b) < 4 * math.sqrt(a / b ** 2 / n)


def test_student_t_median():
    n = 100_000
    draws = sample_student_t(2.0, RngStream(8), size=n)
    density_at_zero = math.gamma(1.5) / (math.sqrt(2 * math.pi) * math.gamma(1.0))
    se = 1.0 / (2.0 * density_at_zero * math.sqrt(n))
    assert abs(np.median(draws)) < 4 * se


def test_positive_params_required():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        sample_inverse_gamma(1.0, 0.0, rng)
    with pytest.raises(ValueError):
        sample_student_t(0.0, rng)


# ---------------------------------------------------------------------------
# multivariate normal from a precision matrix
# ---------------------------------------------------------------------------

def test_mvn_precision_standard_normal():
    m = 10_000
    rng = RngStream(10)
    draws = np.stack([sample_mvn_precision(np.zeros(2), np.eye(2), 1.0, rng)
                      for _ in range(m)])
    assert np.all(np.abs(draws.mean(axis=0)) < 4 / math.sqrt(m))
    assert np.all(np.abs(draws.var(axis=0, ddof=1) - 1.0) < 4 * math.sqrt(2.0 / m))


def test_mvn_precision_scaled():
    m = 20_000
    rng = RngStream(11)
    draws = np.stack([
        sample_mvn_precision(np.full(3, 4.0), 4.0 * np.eye(3), 1.0, rng)
        for _ in range(m)])
    assert np.all(np.abs(draws.mean(axis=0) - 1.0) < 4 * math.sqrt(0.25 / m))
    assert np.all(np.abs(draws.var(axis=0, ddof=1) - 0.25)
                  < 4 * 0.25 * math.sqrt(2.0 / m))


def test_mvn_precision_full_covariance():
    # precision [[2,-1],[-1,2]], scale 2: covariance (2/3) [[2,1],[1,2]]
    m = 50_000
    rng = RngStream(12)
    prec = np.array([[2.0, -1.0], [-1.0, 2.0]])
    draws = np.stack([sample_mvn_precision(np.array([1.0, 0.0]), prec, 2.0, rng)
                      for _ in range(m)])
    target_mean = np.array([2.0 / 3.0, 1.0 / 3.0])
    target_cov = (2.0 / 3.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    se_mean = np.sqrt(np.diag(target_cov) / m)
    assert np.all(np.abs(draws.mean(axis=0) - target_mean) < 4 * se_mean)
    emp_cov = np.cov(draws.T)
    for i in range(2):
        for j in range(2):
            se = math.sqrt((target_cov[i, i] * target_cov[j, j]
                            + target_cov[i, j] ** 2) / m)
            assert abs(emp_cov[i, j] - target_cov[i, j]) < 4 * se


def test_mvn_precision_rejects_non_pd():
    from blockgibbs import FactorizationError
    with pytest.raises(FactorizationError, match="precision"):
        sample_mvn_precision(np.zeros(2), -np.eye(2), 1.0, RngStream(0))


@pytest.mark.parametrize("b,precision,match", [
    (np.ones(3), np.eye(2), "b length vs precision order: expected length 2, got 3"),
    (np.ones(1), np.eye(2), "b length vs precision order: expected length 2, got 1"),
    (np.ones(2), np.ones((2, 3)), "precision columns vs rows: expected length 2, got 3"),
    (np.ones(2), np.ones(2), "precision dimensions: expected length 2, got 1"),
    # a scalar or a matrix b used to be reported as "expected length 1, got 1"
    (1.0, [[2.0]], r"b dimensions \(b has shape \(\)\)"),
    ([[1.0]], [[2.0]], r"b dimensions \(b has shape \(1, 1\)\)"),
])
def test_mvn_precision_rejects_mismatched_shapes(b, precision, match):
    # a longer b used to give a draw of its own length, a shorter one a bare
    # BLAS error
    with pytest.raises(DimensionMismatchError, match=match):
        sample_mvn_precision(b, precision, 1.0, RngStream(0))


@pytest.mark.parametrize("b,precision,match", [
    (np.ones(2), [[math.nan, 0.0], [0.0, 1.0]], "precision has a NaN"),
    (np.ones(2), [[1.0, 0.0], [math.nan, 1.0]], "precision has a NaN"),
    ([math.nan, 1.0], np.eye(2), "b must be finite"),
    ([1.0, -math.inf], np.eye(2), "b must be finite"),
])
def test_mvn_precision_rejects_nan_inputs(b, precision, match):
    # OpenBLAS potrf reports info 0 for a NaN, so these used to draw NaNs
    with pytest.raises(ValueError, match=match):
        sample_mvn_precision(b, precision, 1.0, RngStream(0))


def test_mvn_precision_reads_only_the_lower_triangle():
    prec = np.array([[2.0, 0.5], [0.5, 1.0]])
    upper_nan = prec.copy()
    upper_nan[0, 1] = math.nan
    draws = [sample_mvn_precision(np.ones(2), a, 1.0, RngStream(3)) for a in (prec, upper_nan)]
    np.testing.assert_array_equal(draws[0], draws[1])


def test_mvn_precision_infinite_diagonal_pins_the_coefficient_at_zero():
    draw = sample_mvn_precision(np.ones(2), [[math.inf, 0.0], [0.0, 1.0]], 1.0, RngStream(0))
    assert draw[0] == 0.0 and np.isfinite(draw[1])
