"""Parity between the numba kernels, the scalar loops and the numpy versions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgibbs import _kernels


def _inputs(seed=0, p=64):
    rng = np.random.default_rng(seed)
    beta = rng.standard_normal(p)
    sizes = np.array([5] * (p // 5) + [p % 5 or 5], dtype=np.int64)
    sizes = sizes[sizes.cumsum() <= p]
    sizes[-1] += p - sizes.sum()
    offsets = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    return rng, beta, offsets, sizes


needs_numba = pytest.mark.skipif(not _kernels.HAS_NUMBA,
                                 reason="numba unavailable or disabled")


def test_backend_name_consistent():
    assert _kernels.BACKEND in ("numba", "numpy")
    assert (_kernels.BACKEND == "numba") == _kernels.HAS_NUMBA


def test_warm_up_is_idempotent():
    _kernels.warm_up()
    _kernels.warm_up()


def test_ig_transform_numpy_limit_branch():
    z = np.array([0.5, 1.5])
    u = np.array([0.9, 0.1])
    out = _kernels.ig_transform_numpy(np.array([np.inf, np.inf]), 3.0, z, u)
    np.testing.assert_array_equal(out, 3.0 / (z * z))


def test_ig_transform_numpy_accept_reject():
    # tiny uniform accepts the smaller root; uniform ~ 1 takes mu^2 / x
    mu = np.array([2.0, 2.0])
    z = np.array([1.0, 1.0])
    out = _kernels.ig_transform_numpy(mu, 3.0, z, np.array([0.0, 1.0]))
    root = np.sqrt(4.0 * 2.0 * 3.0 + 4.0)
    x = 2.0 - 2.0 * 4.0 / (2.0 + root)
    assert out[0] == pytest.approx(x, rel=1e-15)
    assert out[1] == pytest.approx(4.0 / x, rel=1e-15)


def test_ig_transform_zero_normal_takes_limit():
    mu = np.array([2.0, 2.0])
    z = np.array([0.0, 1.0])
    out = _kernels.ig_transform_numpy(mu, 3.0, z, np.array([0.0, 0.0]))
    assert out[0] == 2.0  # x -> mu as the chi-square variate vanishes
    assert np.isfinite(out[1])


# Mean parameters over the whole non-negative range, with the values the
# sampler produces at its edges (an all-zero block gives inf) weighted up.
MU = st.one_of(st.floats(min_value=0.0, max_value=math.inf),
               st.sampled_from([math.inf, 1e-300, 5e-324, 1e300, 1.0]))
NORMAL = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(min_value=-8.0, max_value=8.0),
                   st.just(0.0))
UNIFORM = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                    st.sampled_from([0.0, 1.0]))
LAM = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def transform_inputs(draw):
    q = draw(st.integers(min_value=1, max_value=32))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=q, max_size=q)))

    return column(MU), draw(LAM), column(NORMAL), column(UNIFORM)


@settings(max_examples=400, deadline=None)
@given(transform_inputs())
def test_ig_transform_loop_equals_numpy_exactly(inputs):
    mu, lam, z, u = inputs
    expected = _kernels.ig_transform_numpy(mu, lam, z, u)
    np.testing.assert_array_equal(_kernels.ig_transform_short(mu, lam, z, u),
                                  expected)
    np.testing.assert_array_equal(
        _kernels._ig_transform_loop(mu.tolist(), lam, z.tolist(), u.tolist()),
        expected)
    with np.errstate(all="ignore"):  # numpy scalars, as the numba loop sees
        from_arrays = _kernels._ig_transform_loop(mu, lam, z, u)
    np.testing.assert_array_equal(from_arrays, expected)


def test_ig_transform_short_dispatches_on_length(monkeypatch):
    calls = []
    monkeypatch.setattr(_kernels, "ig_transform_numpy",
                        lambda *args: calls.append(args[0].shape[0]))
    for q in (1, _kernels.SHORT_VECTOR_MAX, _kernels.SHORT_VECTOR_MAX + 1, 32):
        ones = np.ones(q)
        _kernels.ig_transform_short(ones, 1.0, ones, 0.5 * ones)
    assert calls == [_kernels.SHORT_VECTOR_MAX + 1, 32]


def test_ig_transform_infinite_mean_zero_uniform_rejects():
    # u * (inf + x) is nan at u = 0, so the draw takes the mu^2 / x branch
    mu = np.array([np.inf, np.inf])
    z = np.array([0.5, 0.0])
    u = np.array([0.0, 0.0])
    out = _kernels.ig_transform_numpy(mu, 3.0, z, u)
    assert out[0] == np.inf and np.isnan(out[1])
    np.testing.assert_array_equal(
        _kernels._ig_transform_loop(mu.tolist(), 3.0, z.tolist(), u.tolist()), out)


@needs_numba
def test_ig_transform_parity():
    rng, _, _, _ = _inputs()
    mu = np.abs(rng.standard_normal(512)) + 1e-3
    mu[::13] = np.inf
    mu[1::29] = 1e300
    mu[2::31] = 1e-300
    z = rng.standard_normal(512)
    z[::17] = 0.0
    u = rng.random(512)
    u[::11] = 0.0
    u[1::19] = 1.0
    a = _kernels.ig_transform_numpy(mu, 2.5, z, u)
    b = _kernels.ig_transform_numba(mu, 2.5, z, u)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.isfinite(a[np.isfinite(mu)]))


@needs_numba
def test_group_sqnorms_parity():
    _, beta, offsets, sizes = _inputs(1)
    a = _kernels.group_sqnorms_numpy(beta, offsets, sizes)
    b = _kernels.group_sqnorms_numba(beta, offsets, sizes)
    np.testing.assert_allclose(a, b, rtol=1e-13)


@needs_numba
def test_expand_by_group_parity():
    rng, _, _, sizes = _inputs(2)
    values = rng.standard_normal(sizes.size)
    np.testing.assert_array_equal(
        _kernels.expand_by_group_numpy(values, sizes),
        _kernels.expand_by_group_numba(values, sizes))


@needs_numba
def test_fused_bands_parity():
    rng = np.random.default_rng(3)
    inv_tau2 = rng.uniform(0.1, 2.0, 33)
    inv_omega2 = rng.uniform(0.1, 2.0, 32)
    d_a, o_a = _kernels.fused_bands_numpy(inv_tau2, inv_omega2)
    d_b, o_b = _kernels.fused_bands_numba(inv_tau2, inv_omega2)
    np.testing.assert_array_equal(d_a, d_b)
    np.testing.assert_array_equal(o_a, o_b)


@needs_numba
def test_tridiag_quad_form_parity():
    rng = np.random.default_rng(4)
    diag = rng.uniform(0.5, 2.0, 33)
    off = rng.uniform(-0.5, 0.5, 32)
    beta = rng.standard_normal(33)
    a = _kernels.tridiag_quad_form_numpy(diag, off, beta)
    b = _kernels.tridiag_quad_form_numba(diag, off, beta)
    assert a == pytest.approx(b, rel=1e-13)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert a == pytest.approx(beta @ dense @ beta, rel=1e-12)
