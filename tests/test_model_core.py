import math
import warnings

import numpy as np
import pytest

from blockgibbs import (
    ChainState,
    Dataset,
    DimensionMismatchError,
    GroupStructure,
    KernelKind,
    LatentScales,
    ModelKind,
    ModelSpec,
    RunConfig,
    SymmetricTridiagonal,
    run_chain,
    samplers,
)
from blockgibbs._linalg import cholesky_spd
from blockgibbs.model_core import add_prior_precision
from block_stubs import BasisGenerator, block_draw


def groups_of(*sizes):
    return GroupStructure(np.array(sizes, dtype=np.int64))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_dataset_validates_dimensions():
    with pytest.raises(DimensionMismatchError, match="expected length 3, got 2"):
        Dataset(y=np.ones(2), x=np.ones((3, 2)))


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(y=np.array([1.0, np.nan]), x=np.ones((2, 1)))


def test_group_structure_offsets():
    g = groups_of(2, 3, 1)
    assert g.n_groups == 3
    assert g.total_size == 6
    assert g.offsets.tolist() == [0, 2, 5]


def test_group_structure_rejects_empty_groups():
    with pytest.raises(ValueError):
        groups_of(2, 0)


def test_model_spec_requires_penalties():
    with pytest.raises(ValueError, match="lam must be > 0"):
        ModelSpec(ModelKind.GROUP_LASSO, groups=groups_of(1))
    with pytest.raises(ValueError, match="lam2"):
        ModelSpec.fused_lasso(1.0, 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        ModelSpec.fused_lasso(1.0, 1.0, alpha=-0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_spec_rejects_non_finite_hyperparameters(bad):
    g = groups_of(2, 1)
    for make in (lambda: ModelSpec.group_lasso(bad, g),
                 lambda: ModelSpec.sparse_group_lasso(1.0, bad, g),
                 lambda: ModelSpec.sparse_group_lasso(bad, 1.0, g),
                 lambda: ModelSpec.fused_lasso(bad, 1.0),
                 lambda: ModelSpec.fused_lasso(1.0, bad),
                 lambda: ModelSpec.group_lasso(1.0, g, alpha=bad),
                 lambda: ModelSpec.fused_lasso(1.0, 1.0, xi=bad)):
        with pytest.raises(ValueError, match="finite"):
            make()


def test_fused_needs_two_coefficients():
    spec = ModelSpec.fused_lasso(1.0, 1.0)
    ds = Dataset(y=np.ones(3), x=np.ones((3, 1)))
    with pytest.raises(ValueError, match="p >= 2"):
        spec.validate_for(ds)


def test_latent_scales_must_be_positive():
    with pytest.raises(ValueError, match="tau2"):
        LatentScales(tau2=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="omega2"):
        LatentScales(tau2=np.array([1.0]), omega2=np.array([-2.0]))


# ---------------------------------------------------------------------------
# prior precision from the latent scales (the chain's own construction)
# ---------------------------------------------------------------------------

def group_prior(tau2, *sizes):
    spec = ModelSpec.group_lasso(1.0, groups_of(*sizes))
    return samplers._prior_precision(spec, (1.0 / np.asarray(tau2),))


def sparse_prior(tau2, gamma2, *sizes):
    spec = ModelSpec.sparse_group_lasso(1.0, 1.0, groups_of(*sizes))
    return samplers._prior_precision(spec, (1.0 / np.asarray(tau2),
                                            1.0 / np.asarray(gamma2)))


def fused_prior(tau2, omega2):
    spec = ModelSpec.fused_lasso(1.0, 1.0)
    return samplers._prior_precision(spec, (1.0 / np.asarray(tau2),
                                            1.0 / np.asarray(omega2)))


def frozen_chain(spec, ds, scales):
    # the (sigma2, beta) block drawn with the latent scales held at `scales`
    state = ChainState(beta=np.zeros(ds.p), sigma2=1.0, scales=scales)
    return run_chain(KernelKind.TWO_BLOCK, spec, ds,
                     RunConfig(n_iter=5, burn_in=0, seed=0, store_beta=True),
                     initial_state=state, freeze_scales=True)


def test_group_cov_repeats_by_group():
    d = 1.0 / group_prior([4.0, 9.0], 2, 1)
    assert d.tolist() == [4.0, 4.0, 9.0]


def test_group_cov_identity_case():
    assert group_prior([1.0], 1).tolist() == [1.0]


def test_group_cov_two_groups_of_five():
    d = 1.0 / group_prior([0.25, 2.0], 5, 5)
    assert d[:5].tolist() == [0.25] * 5
    assert d[5:].tolist() == [2.0] * 5


def test_group_cov_dimension_mismatch():
    spec = ModelSpec.group_lasso(1.0, groups_of(2, 1))
    ds = Dataset(y=np.ones(4), x=np.eye(4, 3))
    with pytest.raises(DimensionMismatchError, match="expected length 2, got 3"):
        frozen_chain(spec, ds, LatentScales(tau2=np.ones(3)))


def test_degenerate_scale_pins_its_coefficients_at_zero():
    # 1 / 1e-310 overflows to an infinite prior precision, whose exact limit
    # holds the group's coefficients at zero
    spec = ModelSpec.group_lasso(1.0, groups_of(1, 1))
    ds = Dataset(y=np.arange(1.0, 5.0), x=np.eye(4, 2) + 0.5)
    with np.errstate(over="ignore"):
        out = frozen_chain(spec, ds, LatentScales(tau2=np.array([1e-310, 1.0])))
    assert np.all(out.beta_draws[:, 0] == 0.0)
    assert np.all(out.beta_draws[:, 1] != 0.0) and np.all(out.sigma2_draws > 0.0)


def test_frozen_degenerate_scale_raises_no_warning():
    # the reciprocals of frozen scales are taken inside the chain's quiet
    # floating-point state, so 1 / 1e-310 warns no caller
    spec = ModelSpec.group_lasso(1.0, groups_of(1, 1))
    ds = Dataset(y=np.arange(1.0, 5.0), x=np.eye(4, 2) + 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = frozen_chain(spec, ds, LatentScales(tau2=np.array([1e-310, 1.0])))
    assert np.all(out.beta_draws[:, 0] == 0.0)


def test_sparse_group_cov_harmonic_entries():
    assert (1.0 / sparse_prior([1.0], [1.0], 1)).tolist() == [0.5]
    assert (1.0 / sparse_prior([2.0], [2.0], 1)).tolist() == [1.0]


def test_sparse_group_cov_mixed_groups():
    v = 1.0 / sparse_prior([1.0, 4.0], [1.0, 2.0, 4.0], 2, 1)
    np.testing.assert_allclose(v, [0.5, 2.0 / 3.0, 2.0], rtol=1e-15)


def test_sparse_group_cov_needs_gamma():
    spec = ModelSpec.sparse_group_lasso(1.0, 1.0, groups_of(1))
    ds = Dataset(y=np.ones(3), x=np.ones((3, 1)))
    with pytest.raises(ValueError, match="gamma2"):
        frozen_chain(spec, ds, LatentScales(tau2=np.ones(1)))


def test_fused_precision_small_cases():
    t = fused_prior(np.ones(2), np.ones(1))
    np.testing.assert_array_equal(t.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])

    t = fused_prior(np.ones(3), np.ones(2))
    np.testing.assert_array_equal(
        t.to_dense(), [[2.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 2.0]])


def test_fused_precision_general_entries():
    t = fused_prior([4.0, 1.0, 2.0], [2.0, 5.0])
    np.testing.assert_allclose(t.diag, [0.75, 1.7, 0.7], rtol=1e-15)
    np.testing.assert_allclose(t.off, [-0.5, -0.2], rtol=1e-15)


def test_fused_precision_needs_p_at_least_two():
    ds = Dataset(y=np.ones(3), x=np.ones((3, 1)))
    with pytest.raises(ValueError, match="p >= 2"):
        frozen_chain(ModelSpec.fused_lasso(1.0, 1.0), ds,
                     LatentScales(tau2=np.ones(1), omega2=np.ones(1)))


def test_fused_precision_row_sums_cancel():
    # row sums reduce to 1/tau_j^2: off-diagonal contributions cancel
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = int(rng.integers(2, 12))
        tau2 = rng.uniform(0.1, 5.0, p)
        omega2 = rng.uniform(0.1, 5.0, p - 1)
        t = fused_prior(tau2, omega2)
        np.testing.assert_allclose(t.to_dense().sum(axis=1), 1.0 / tau2,
                                   rtol=1e-12)


# ---------------------------------------------------------------------------
# posterior precision assembly
# ---------------------------------------------------------------------------

def assemble(ds, prior_inv):
    gram = ds.x.T @ ds.x
    return add_prior_precision(gram, prior_inv, out=np.empty_like(gram))


def test_assemble_with_zero_design():
    ds = Dataset(y=np.ones(2), x=np.zeros((2, 2)))
    np.testing.assert_array_equal(assemble(ds, np.ones(2)), np.eye(2))


def test_assemble_with_identity_design():
    ds = Dataset(y=np.ones(2), x=np.eye(2))
    np.testing.assert_array_equal(assemble(ds, np.ones(2)), 2.0 * np.eye(2))


def test_assemble_single_column():
    ds = Dataset(y=np.array([1.0, 1.0]), x=np.array([[1.0], [0.0]]))
    np.testing.assert_array_equal(assemble(ds, np.ones(1)), [[2.0]])


def test_assemble_symmetric_positive_definite():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n, p = int(rng.integers(1, 10)), int(rng.integers(2, 8))
        ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))
        for prior_inv in _priors(rng, p).values():
            a = assemble(ds, prior_inv)
            np.testing.assert_allclose(a, a.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(a) > 0)


def _priors(rng, p):
    return {
        "diagonal": rng.uniform(0.2, 3.0, p),
        "tridiagonal": SymmetricTridiagonal(rng.uniform(2.0, 3.0, p),
                                            rng.uniform(-0.5, 0.5, p - 1)),
    }


def _dense(prior):
    if isinstance(prior, SymmetricTridiagonal):
        return prior.to_dense()
    return np.diag(prior)


@pytest.mark.parametrize("kind", ["diagonal", "tridiagonal"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_add_prior_precision_into_workspace_equals_copy(kind, order):
    rng = np.random.default_rng(12)
    for p in (1, 2, 3, 7):
        x = rng.standard_normal((p + 4, p))
        gram = x.T @ x
        prior = _priors(rng, p)[kind]
        out = np.full((p, p), np.nan, order=order)
        a = add_prior_precision(np.asarray(gram, order=order), prior, out=out)
        assert a is out
        np.testing.assert_array_equal(a, gram.copy() + _dense(prior))


def test_add_prior_precision_rejects_strided_workspace():
    gram = np.eye(3)
    with pytest.raises(ValueError, match="contiguous"):
        add_prior_precision(gram, np.ones(3), out=np.empty((3, 6))[:, ::2])
    with pytest.raises(ValueError, match="contiguous"):
        add_prior_precision(gram, np.ones(3), out=np.empty((2, 2)))


def test_cholesky_overwrite_factors_in_place():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((9, 5))
    gram = np.asfortranarray(x.T @ x)
    work = np.empty_like(gram, order="F")
    a = add_prior_precision(gram, np.ones(5), out=work)
    expected = np.tril(cholesky_spd(a.copy()))
    chol = cholesky_spd(a, overwrite=True)
    assert np.shares_memory(chol, work)
    np.testing.assert_array_equal(np.tril(chol), expected)


# ---------------------------------------------------------------------------
# the chain's residual-variance scales and beta mean (block update with a
# stub generator: gamma draws 1 and the normals are zero)
# ---------------------------------------------------------------------------

def group_spec(p, alpha=0.0, xi=0.0):
    return ModelSpec.group_lasso(1.0, groups_of(*[1] * p), alpha=alpha, xi=xi)


def marginal(ds, prior_inv, alpha=0.0, xi=0.0):
    """(gamma shape, scale) of the two-block sigma2 draw."""
    gen = BasisGenerator()
    _, scale = block_draw(group_spec(ds.p, alpha, xi), ds, KernelKind.TWO_BLOCK,
                          np.zeros(ds.p), prior_inv, gen)
    return gen.shapes[0], scale


def conditional(ds, beta, prior_inv, alpha=0.0, xi=0.0):
    """(gamma shape, scale) of the three-block sigma2 draw given beta."""
    gen = BasisGenerator()
    _, scale = block_draw(group_spec(ds.p, alpha, xi), ds, KernelKind.THREE_BLOCK,
                          beta, prior_inv, gen)
    return gen.shapes[0], scale


def beta_mean(ds, prior_inv):
    return block_draw(group_spec(ds.p), ds, KernelKind.TWO_BLOCK,
                      np.zeros(ds.p), prior_inv)[0]


def test_marginal_sigma2_zero_design():
    y = np.array([1.0, 2.0, 3.0])
    ds = Dataset(y=y, x=np.zeros((3, 2)))
    shape, scale = marginal(ds, np.ones(2))
    assert shape == 1.5
    assert scale == pytest.approx(y @ y / 2.0, rel=1e-15)


def test_marginal_sigma2_hand_instance():
    # n=2, p=1, X=(1,0)', Y=(1,1)', unit prior precision: A=2, scale 0.75
    ds = Dataset(y=np.array([1.0, 1.0]), x=np.array([[1.0], [0.0]]))
    shape, scale = marginal(ds, np.ones(1))
    assert shape == 1.0
    assert scale == pytest.approx(0.75, rel=1e-14)
    _, scale_xi = marginal(ds, np.ones(1), xi=1.0)
    assert scale_xi == pytest.approx(1.75, rel=1e-14)


def test_marginal_sigma2_scale_at_least_xi():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n, p = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))
        xi = float(rng.uniform(0.0, 2.0))
        _, scale = marginal(ds, rng.uniform(0.5, 2.0, p), xi=xi)
        assert scale >= xi - 1e-12


def test_marginal_sigma2_degenerate_raises():
    ds = Dataset(y=np.zeros(2), x=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="non-positive"):
        marginal(ds, np.ones(1))


def test_conditional_sigma2_zero_beta():
    y = np.array([1.0, 2.0])
    ds = Dataset(y=y, x=np.ones((2, 3)))
    shape, scale = conditional(ds, np.zeros(3), np.ones(3), alpha=0.5)
    assert shape == (2 + 3 + 1) / 2
    assert scale == pytest.approx(y @ y / 2.0, rel=1e-15)


def test_conditional_sigma2_hand_instance():
    ds = Dataset(y=np.array([1.0, 1.0]), x=np.array([[1.0], [0.0]]))
    shape, scale = conditional(ds, np.array([1.0]), np.ones(1))
    assert shape == 1.5
    assert scale == pytest.approx(1.0, rel=1e-15)


def test_conditional_sigma2_xi_only():
    ds = Dataset(y=np.zeros(2), x=np.ones((2, 1)))
    _, scale = conditional(ds, np.zeros(1), np.ones(1), xi=3.0)
    assert scale == 3.0
    with pytest.raises(ValueError, match="non-positive"):
        conditional(ds, np.zeros(1), np.ones(1))


def test_beta_conditional_identity_design():
    y = np.array([2.0, -4.0])
    ds = Dataset(y=y, x=np.eye(2))
    np.testing.assert_allclose(beta_mean(ds, np.ones(2)), y / 2.0, rtol=1e-14)


def test_beta_conditional_zero_design():
    ds = Dataset(y=np.ones(3), x=np.zeros((3, 2)))
    np.testing.assert_array_equal(beta_mean(ds, np.ones(2)), np.zeros(2))


def test_beta_conditional_hand_instance_and_covariance():
    # A = 2: mean 0.5; with sigma2 = the scale 0.75, covariance 0.75 / 2
    ds = Dataset(y=np.array([1.0, 1.0]), x=np.array([[1.0], [0.0]]))
    spec = group_spec(1)
    mean, sigma2 = block_draw(spec, ds, KernelKind.TWO_BLOCK, np.zeros(1), np.ones(1))
    unit, _ = block_draw(spec, ds, KernelKind.TWO_BLOCK, np.zeros(1), np.ones(1),
                         BasisGenerator(0))
    assert mean[0] == pytest.approx(0.5, rel=1e-14)
    assert sigma2 == pytest.approx(0.75, rel=1e-14)
    np.testing.assert_allclose((unit - mean) ** 2, [0.375], rtol=1e-14)


def test_marginal_scale_equals_projector_form():
    # the one-factorization route (Y'Y - ||L^-1 X'Y||^2 for p <= n, the sum of
    # squares ||L^-1 Y||^2 for p > n) must equal Y'(I - X A^-1 X')Y
    rng = np.random.default_rng(17)
    for _ in range(25):
        n, p = int(rng.integers(2, 10)), int(rng.integers(1, 6))
        ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))
        prior_inv = rng.uniform(0.3, 2.0, p)
        _, scale = marginal(ds, prior_inv, xi=0.25)
        a = ds.x.T @ ds.x + np.diag(prior_inv)
        proj = np.eye(n) - ds.x @ np.linalg.inv(a) @ ds.x.T
        assert scale == pytest.approx(0.5 * ds.y @ proj @ ds.y + 0.25, rel=1e-10)


def test_quadratic_form_identity():
    # Y'(I - X A^-1 X')Y == ||Y - X m||^2 + m' P m for m = A^-1 X'Y,
    # tying the marginal scale to the conditional scale algebraically
    rng = np.random.default_rng(42)
    for _ in range(100):
        n, p = int(rng.integers(1, 12)), int(rng.integers(1, 10))
        ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))
        prior_inv = rng.uniform(0.2, 3.0, p)
        mean, scale = block_draw(group_spec(p), ds, KernelKind.TWO_BLOCK,
                                 np.zeros(p), prior_inv)
        _, conditional_scale = conditional(ds, mean, prior_inv)
        assert scale == pytest.approx(conditional_scale, rel=1e-8)
