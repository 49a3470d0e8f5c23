"""The dense block update's scales and maps against rational references.

Both kernels' scales are 0.5 S(v) + xi for the one sum of squares
S(v) = ||y - X v||^2 + v^T Q v, taken at the mean m = A^-1 X^T y
(two-block) or at the incoming beta (three-block), with A = X^T X + Q.
When n > p the update works on the p + 1 rows of R, the triangular factor
of [X y], in place of (X, y); its scales, mean map and covariance map must
still be those of the unreduced data.

S(beta) = S(m) + (beta - m)^T A (beta - m) ties the two together. The
references are computed exactly in `fractions.Fraction` arithmetic from the
float inputs.
"""
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgibbs import Dataset, GroupStructure, KernelKind, ModelSpec, samplers
from blockgibbs._linalg import qr_r
from block_stubs import block_draw, fixed_prior, read_off_maps, to_dense

TWO, THREE = KernelKind.TWO_BLOCK, KernelKind.THREE_BLOCK


def exact_solve(a, b):
    """a^-1 b by Gaussian elimination in rationals (a symmetric positive definite)."""
    n = len(b)
    a, b = [row[:] for row in a], b[:]
    for c in range(n):
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [v - f * w for v, w in zip(a[r], a[c])]
            b[r] -= f * b[c]
    sol = [Fraction(0)] * n
    for r in reversed(range(n)):
        sol[r] = (b[r] - sum(a[r][k] * sol[k] for k in range(r + 1, n))) / a[r][r]
    return sol


class Exact:
    """S(beta), S(m) and (beta - m)^T A (beta - m) in rationals for X, y and Q."""

    def __init__(self, x, y, q):
        n, p = x.shape
        self.x = [[Fraction(v) for v in row] for row in x]
        self.y = [Fraction(v) for v in y]
        self.q = [[Fraction(v) for v in row] for row in q]
        self.a = [[sum(self.x[k][i] * self.x[k][j] for k in range(n)) + self.q[i][j]
                   for j in range(p)] for i in range(p)]
        b = [sum(self.x[k][i] * self.y[k] for k in range(n)) for i in range(p)]
        self.m = exact_solve(self.a, b)
        self.s_mean = (sum(v * v for v in self.y)
                       - sum(bi * mi for bi, mi in zip(b, self.m)))

    def s(self, beta):
        beta = [Fraction(v) for v in beta]
        resid = [yk - sum(xkj * bj for xkj, bj in zip(row, beta))
                 for row, yk in zip(self.x, self.y)]
        return sum(r * r for r in resid) + quad(self.q, beta)

    def a_norm(self, beta):
        return quad(self.a, [Fraction(v) - mi for v, mi in zip(beta, self.m)])


def exact_inverse(a):
    p = len(a)
    cols = [exact_solve(a, [Fraction(int(i == j)) for i in range(p)]) for j in range(p)]
    return [[cols[j][i] for j in range(p)] for i in range(p)]


def quad(mat, v):
    return sum(vi * mij * vj for vi, row in zip(v, mat) for mij, vj in zip(row, v))


def rel_err(value, exact):
    return float(abs(Fraction(value) - exact) / exact)


def assert_exact(values, exact, rtol):
    """Each float in `values` within `rtol` relative of its rational in `exact`."""
    flat = np.ravel(np.array(exact, dtype=object))
    assert max(rel_err(v, e) for v, e in zip(np.ravel(values), flat)) < rtol


def scales(spec, ds, beta, inv_scales):
    """(2bg scale, 3bg scale) of the chain's dense block update."""
    return tuple(block_draw(spec, ds, kernel, beta, inv_scales)[1]
                 for kernel in (TWO, THREE))


def instance(seed, model, n, p, xi=0.25):
    rng = np.random.default_rng(seed)
    ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))
    if model == "group":
        groups = GroupStructure(np.array([2, p - 2]))
        spec = ModelSpec.group_lasso(1.0, groups, xi=xi)
        inv_scales = (rng.uniform(0.3, 3.0, 2),)
    elif model == "sparse":
        groups = GroupStructure(np.array([2, p - 2]))
        spec = ModelSpec.sparse_group_lasso(1.0, 1.0, groups, xi=xi)
        inv_scales = (rng.uniform(0.3, 3.0, 2), rng.uniform(0.3, 3.0, p))
    else:
        spec = ModelSpec.fused_lasso(1.0, 1.0, xi=xi)
        inv_scales = (rng.uniform(0.3, 3.0, p), rng.uniform(0.3, 3.0, p - 1))
    return ds, spec, inv_scales, 2.0 * rng.standard_normal(p)


@pytest.mark.parametrize("n", [6, 9, 600])
def test_qr_r_is_the_triangular_factor_of_x_y(n):
    # row blocks are folded in one at a time: 600 rows take several, the
    # last one shorter
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((n, 5)), rng.standard_normal(n)
    r = qr_r(x, y)
    xy = np.column_stack([x, y])
    assert r.shape == (6, 6) and r.flags.f_contiguous
    assert np.array_equal(r, np.triu(r))
    np.testing.assert_allclose(r.T @ r, xy.T @ xy, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,p", [(9, 4), (5, 5), (3, 6)])
def test_sum_of_squares_matches_the_residual(n, p):
    rng = np.random.default_rng(n * p)
    x, y = rng.standard_normal((n, p)), rng.standard_normal(n)
    spec = ModelSpec.fused_lasso(1.0, 1.0)
    prior = fixed_prior(spec, rng.uniform(0.3, 3.0, p), rng.uniform(0.3, 3.0, p - 1))
    sum_sq = samplers._sum_of_squares(x, y)
    exact = Exact(x, y, to_dense(prior))
    for v in rng.standard_normal((3, p)):
        assert rel_err(sum_sq(v, prior), exact.s(v)) < 1e-13


@pytest.mark.parametrize("model", ["group", "sparse", "fused"])
@pytest.mark.parametrize("n,p", [(9, 5), (5, 5)])
@pytest.mark.parametrize("seed", [0, 1])
def test_both_scales_follow_the_identity(seed, n, p, model):
    # S(beta) = S(m) + (beta - m)^T A (beta - m): the two-block scale is
    # 0.5 S(m) + xi and the three-block scale 0.5 S(beta) + xi
    ds, spec, inv_scales, beta = instance(seed, model, n, p)
    exact = Exact(ds.x, ds.y, to_dense(fixed_prior(spec, *inv_scales)))
    assert exact.s(beta) == exact.s_mean + exact.a_norm(beta)
    xi = Fraction(spec.xi)
    two, three = scales(spec, ds, beta, inv_scales)
    assert rel_err(two, exact.s_mean / 2 + xi) < 1e-13
    assert rel_err(three, exact.s(beta) / 2 + xi) < 1e-13


@pytest.mark.parametrize("model", ["group", "sparse", "fused"])
@pytest.mark.parametrize("n,p", [(9, 5), (300, 5)])
@pytest.mark.parametrize("kernel", [TWO, THREE], ids=["2bg", "3bg"])
def test_reduced_data_keeps_the_maps_of_x_y(kernel, n, p, model):
    # n > p: the rows of R stand in for (X, y); 300 rows reach R through
    # several row blocks, the last one shorter
    ds, spec, inv_scales, beta = instance(n, model, n, p)
    exact = Exact(ds.x, ds.y, to_dense(fixed_prior(spec, *inv_scales)))
    mean, scale, cov = read_off_maps(
        lambda gen: block_draw(spec, ds, kernel, beta, inv_scales, gen), p)
    s = exact.s_mean if kernel is TWO else exact.s(beta)
    exact_scale = s / 2 + Fraction(spec.xi)
    assert rel_err(scale, exact_scale) < 1e-12
    assert_exact(mean, exact.m, 1e-12)
    assert_exact(cov, [[exact_scale * v for v in row] for row in exact_inverse(exact.a)],
                 1e-12)


def test_sample_mvn_precision_has_the_exact_maps():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((5, 3))
    precision, b, sigma2 = g.T @ g + np.eye(3), rng.standard_normal(3), 0.7

    def draw(gen):
        rng_stub = SimpleNamespace(generator=gen)
        return samplers.sample_mvn_precision(b, precision, sigma2, rng_stub), sigma2

    mean, _, cov = read_off_maps(draw, 3)
    a = [[Fraction(v) for v in row] for row in precision]
    assert_exact(mean, exact_solve(a, [Fraction(v) for v in b]), 1e-12)
    assert_exact(cov, [[Fraction(sigma2) * v for v in row] for row in exact_inverse(a)],
                 1e-12)


# Square or nearly square designs whose prior precision goes down to 1e-10:
# the fit nears interpolation, where the difference y^T y - u^T u (u = L^-1
# X^T y) would cancel, and A inherits the conditioning of X^T X
@st.composite
def near_singular(draw):
    p = draw(st.integers(2, 6))
    n = p + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = draw(st.sampled_from(["group", "fused"]))
    exponents = st.floats(-10.0, 0.0)
    if draw(st.booleans()):
        precision = np.full(p, 10.0 ** draw(exponents))
    else:
        precision = 10.0 ** np.array(draw(st.lists(exponents, min_size=p, max_size=p)))
    if model == "group":
        spec = ModelSpec.group_lasso(1.0, GroupStructure(np.ones(p, dtype=np.int64)))
        inv_scales = (precision,)
    else:
        spec = ModelSpec.fused_lasso(1.0, 1.0)
        inv_scales = (precision, np.full(p - 1, precision.min()))
    ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))
    return ds, spec, inv_scales, rng.standard_normal(p)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(near_singular())
def test_scales_near_singular_within_1e_12(case):
    ds, spec, inv_scales, beta = case
    exact = Exact(ds.x, ds.y, to_dense(fixed_prior(spec, *inv_scales)))
    with np.errstate(**samplers._QUIET):
        two, three = scales(spec, ds, beta, inv_scales)
    assert rel_err(two, exact.s_mean / 2) <= 1e-12
    assert rel_err(three, exact.s(beta) / 2) <= 1e-12
