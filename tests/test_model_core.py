import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgibbs import (
    ChainState,
    Dataset,
    DimensionMismatchError,
    GroupStructure,
    KernelKind,
    ModelKind,
    ModelSpec,
    RngStream,
    RunConfig,
    Scenario,
    ScenarioSpec,
    run_chain,
    samplers,
)
from blockgibbs._linalg import cholesky_spd
from block_stubs import (
    BasisGenerator,
    block_draw,
    fixed_prior,
    frozen_scale_draws,
    to_dense,
)


def groups_of(*sizes):
    return GroupStructure(np.array(sizes, dtype=np.int64))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_dataset_validates_dimensions():
    with pytest.raises(DimensionMismatchError, match="expected length 3, got 2"):
        Dataset(y=np.ones(2), x=np.ones((3, 2)))


@pytest.mark.parametrize("n,p,dim", [(0, 3, "n"), (4, 0, "p"), (0, 0, "n")])
def test_dataset_requires_a_row_and_a_column(n, p, dim):
    with pytest.raises(ValueError, match=f"dataset needs {dim} >= 1, got {dim}=0"):
        Dataset(y=np.empty(n), x=np.empty((n, p)))


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(y=np.array([1.0, np.nan]), x=np.ones((2, 1)))


@pytest.mark.parametrize("y,x,match", [
    (np.ones(3), np.ones(3), "design matrix must be 2-D, got ndim=1"),
    (np.ones((3, 1)), np.ones((3, 2)), "response must be 1-D, got ndim=2"),
])
def test_dataset_rejects_a_design_or_response_of_the_wrong_rank(y, x, match):
    with pytest.raises(ValueError, match=match):
        Dataset(y=y, x=x)


def test_dataset_holds_read_only_copies():
    # the chains on a dataset share a reduction of x and y, so they cannot
    # be written through the dataset; the caller's own arrays stay writeable
    x, y = np.ones((3, 2)), np.ones(3)
    ds = Dataset(y=y, x=x)
    with pytest.raises(ValueError, match="read-only"):
        ds.x[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        ds.y[0] = 1.0
    assert not (np.shares_memory(ds.x, x) or np.shares_memory(ds.y, y))
    x[0, 0] = y[0] = 2.0
    assert ds.x[0, 0] == ds.y[0] == 1.0


@pytest.mark.parametrize("sigma2", [0.0, -1.0, math.nan, math.inf])
def test_chain_state_rejects_a_sigma2_that_is_not_finite_and_positive(sigma2):
    # an infinite sigma2 used to be accepted, and run_chain started from it
    with pytest.raises(ValueError, match="sigma2 must be finite and > 0"):
        ChainState(beta=np.zeros(5), sigma2=sigma2)


def test_chain_state_rejects_a_non_finite_beta():
    with pytest.raises(ValueError, match="beta contains non-finite entries"):
        ChainState(beta=np.array([0.0, math.nan]), sigma2=1.0)


@pytest.mark.parametrize("shape", [(2, 2), (1, 3), ()])
def test_chain_state_rejects_a_beta_that_is_not_1d(shape):
    # a matrix used to be accepted, and only run_chain's length check caught it
    with pytest.raises(ValueError) as info:
        ChainState(beta=np.zeros(shape), sigma2=1.0)
    assert str(info.value) == f"beta must be 1-D, got shape {shape}"


def test_group_structure_offsets():
    g = groups_of(2, 3, 1)
    assert g.n_groups == 3
    assert g.total_size == 6
    assert g.offsets.tolist() == [0, 2, 5]


def test_group_structure_rejects_empty_groups():
    with pytest.raises(ValueError):
        groups_of(2, 0)


@pytest.mark.parametrize("sizes", [[2.5, 1.5], [2, 1.5], [math.nan, 1], [math.inf],
                                   [1e20], [], [[1, 2]]])
def test_group_structure_rejects_non_integral_sizes(sizes):
    # [2.5, 1.5] used to be truncated to [2, 1]
    with pytest.raises(ValueError, match="positive integers"):
        GroupStructure(sizes)


def test_group_structure_accepts_integral_floats():
    assert GroupStructure([2.0, 1.0]).group_sizes.tolist() == [2, 1]
    assert GroupStructure([2.0, 1.0]).group_sizes.dtype == np.int64


def test_model_spec_requires_penalties():
    with pytest.raises(ValueError, match="lam must be > 0"):
        ModelSpec(ModelKind.GROUP_LASSO, groups=groups_of(1))
    with pytest.raises(ValueError, match="group-lasso requires a GroupStructure"):
        ModelSpec(ModelKind.GROUP_LASSO, lam=1.0)
    with pytest.raises(ValueError, match="lam2"):
        ModelSpec.fused_lasso(1.0, 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        ModelSpec.fused_lasso(1.0, 1.0, alpha=-0.5)


def make_spec(kind, **penalties):
    groups = groups_of(2, 1) if kind.grouped else None
    values = {name: 1.0 for name in kind.penalties}
    return ModelSpec(kind, groups=groups, **{**values, **penalties})


@pytest.mark.parametrize("kind,name", [(kind, name) for kind in ModelKind
                                       for name in kind.penalties])
def test_model_spec_rejects_a_penalty_whose_square_underflows(kind, name):
    # the samplers use the penalty's square: 1e-300 squares to 0, while
    # 1e-160 squares to a subnormal that is still > 0
    with pytest.raises(ValueError, match=f"^{name} squared underflows to 0, got 1e-300"):
        make_spec(kind, **{name: 1e-300})
    assert getattr(make_spec(kind, **{name: 1e-160}), name) == 1e-160


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


@pytest.mark.parametrize("groups", [[1, 1], np.array([1, 1]), (2,)])
def test_model_spec_rejects_groups_that_are_not_a_group_structure(groups):
    # a list or an array used to fail later, with an AttributeError
    with pytest.raises(ValueError, match="groups must be a GroupStructure"):
        ModelSpec.group_lasso(1.0, groups)
    with pytest.raises(ValueError, match="groups must be a GroupStructure"):
        ModelSpec(ModelKind.FUSED_LASSO, lam1=1.0, lam2=1.0, groups=groups)


def test_fused_lasso_ignores_group_sizes():
    spec = ModelSpec(ModelKind.FUSED_LASSO, lam1=1.0, lam2=1.0, groups=groups_of(3))
    ds = Dataset(y=np.arange(4.0), x=np.eye(4, 2))
    spec.validate_for(ds)
    out = run_chain(KernelKind.TWO_BLOCK, spec, ds, RunConfig(n_iter=5, burn_in=0))
    assert out.sigma2_draws.shape == (5,)


def test_model_spec_converts_a_string_kind():
    # a string kind used to raise AttributeError on `kind.penalties`
    g = groups_of(2, 1)
    assert ModelSpec("group-lasso", lam=1.0, groups=g) == ModelSpec.group_lasso(1.0, g)
    assert ModelSpec("group-lasso", lam=1.0, groups=g).kind is ModelKind.GROUP_LASSO
    fused = ModelSpec("fused-lasso", lam1=1.0, lam2=2.0)
    assert fused == ModelSpec.fused_lasso(1.0, 2.0)
    assert fused.kind is ModelKind.FUSED_LASSO
    with pytest.raises(ValueError, match="not a valid ModelKind"):
        ModelSpec("ridge", lam=1.0)


def test_group_structure_compares_and_hashes_by_its_sizes():
    assert GroupStructure([2, 1]) == GroupStructure(np.array([2.0, 1.0]))
    assert GroupStructure([2, 1]) != GroupStructure([1, 2])
    assert GroupStructure([2, 1]) != GroupStructure([2, 1, 1])
    assert GroupStructure([2, 1]) != [2, 1]
    assert hash(GroupStructure([2, 1])) == hash(GroupStructure([2, 1]))
    assert len({GroupStructure([5]), GroupStructure([5]), GroupStructure([4])}) == 2


def test_model_specs_compare_and_hash_for_every_model():
    def specs():
        return [ModelSpec.group_lasso(1.0, groups_of(2, 1)),
                ModelSpec.sparse_group_lasso(1.0, 2.0, groups_of(2, 1)),
                ModelSpec.fused_lasso(1.0, 2.0)]

    assert specs() == specs()
    assert [hash(s) for s in specs()] == [hash(s) for s in specs()]
    assert len(set(specs() + specs())) == 3
    assert ModelSpec.group_lasso(1.0, groups_of(2, 1)) != ModelSpec.group_lasso(
        1.0, groups_of(1, 2))


def test_records_holding_arrays_compare_by_identity():
    sim = ScenarioSpec(Scenario.GROUPED_POLY, 6, 5).generate(RngStream(1))
    twin = ScenarioSpec(Scenario.GROUPED_POLY, 6, 5).generate(RngStream(1))
    spec = ModelSpec.group_lasso(1.0, sim.groups)
    out, again = (run_chain(KernelKind.TWO_BLOCK, spec, sim.dataset,
                            RunConfig(n_iter=3, burn_in=0)) for _ in range(2))
    pairs = [(sim, twin), (sim.dataset, twin.dataset),
             (ChainState(beta=np.zeros(2), sigma2=1.0),
              ChainState(beta=np.zeros(2), sigma2=1.0)), (out, again)]
    for record, equal_twin in pairs:
        assert record == record and record != equal_twin
        assert {record, equal_twin, record} == {record, equal_twin}


# ---------------------------------------------------------------------------
# prior precision from the latent scales (the chain's own construction)
# ---------------------------------------------------------------------------

def group_prior(tau2, *sizes):
    spec = ModelSpec.group_lasso(1.0, groups_of(*sizes))
    return fixed_prior(spec, 1.0 / np.asarray(tau2)).diag


def sparse_prior(tau2, gamma2, *sizes):
    spec = ModelSpec.sparse_group_lasso(1.0, 1.0, groups_of(*sizes))
    return fixed_prior(spec, 1.0 / np.asarray(tau2), 1.0 / np.asarray(gamma2)).diag


def fused_prior(tau2, omega2):
    spec = ModelSpec.fused_lasso(1.0, 1.0)
    return fixed_prior(spec, 1.0 / np.asarray(tau2), 1.0 / np.asarray(omega2))


def test_group_cov_repeats_by_group():
    d = 1.0 / group_prior([4.0, 9.0], 2, 1)
    assert d.tolist() == [4.0, 4.0, 9.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=40),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_group_prior_expands_through_its_index_like_repeat(sizes, seed):
    # the chain's prior expands the group scales through an index array built
    # once per chain; it must equal np.repeat by the group sizes exactly
    values = np.random.default_rng(seed).uniform(0.1, 10.0, len(sizes))
    spec = ModelSpec.group_lasso(1.0, GroupStructure(sizes))
    diag = fixed_prior(spec, values).diag
    expected = np.repeat(values, sizes)
    assert diag.dtype == expected.dtype and diag.tobytes() == expected.tobytes()


def test_group_cov_identity_case():
    assert group_prior([1.0], 1).tolist() == [1.0]


def test_group_cov_two_groups_of_five():
    d = 1.0 / group_prior([0.25, 2.0], 5, 5)
    assert d[:5].tolist() == [0.25] * 5
    assert d[5:].tolist() == [2.0] * 5


@pytest.mark.parametrize("model", ["group", "fused"])
@pytest.mark.parametrize("kernel", list(KernelKind), ids=lambda k: k.value)
def test_degenerate_scale_pins_its_coefficients_at_zero(kernel, model):
    # 1 / 1e-310 overflows to an infinite prior precision (on the first
    # group's tau^2, or the fused lasso's tau_1^2 with every omega finite),
    # whose exact limit holds the first coefficient at zero; the residual
    # variance scale counts its inf * 0 in beta^T Q beta as 0
    ds = Dataset(y=np.arange(1.0, 5.0), x=np.eye(4, 2) + 0.5)
    with np.errstate(over="ignore"):
        inv_tau2 = 1.0 / np.array([1e-310, 1.0])
    if model == "group":
        spec, inv_scales = ModelSpec.group_lasso(1.0, groups_of(1, 1)), (inv_tau2,)
    else:
        spec, inv_scales = ModelSpec.fused_lasso(1.0, 1.0), (inv_tau2, np.ones(1))
    sigma2_draws, beta_draws = frozen_scale_draws(spec, ds, kernel, inv_scales,
                                                  n_iter=5, seed=0)
    assert np.all(np.isfinite(sigma2_draws))
    assert np.all(beta_draws[:, 0] == 0.0)
    assert np.all(beta_draws[:, 1] != 0.0) and np.all(sigma2_draws > 0.0)


def test_sparse_group_cov_harmonic_entries():
    assert (1.0 / sparse_prior([1.0], [1.0], 1)).tolist() == [0.5]
    assert (1.0 / sparse_prior([2.0], [2.0], 1)).tolist() == [1.0]


def test_sparse_group_cov_mixed_groups():
    v = 1.0 / sparse_prior([1.0, 4.0], [1.0, 2.0, 4.0], 2, 1)
    np.testing.assert_allclose(v, [0.5, 2.0 / 3.0, 2.0], rtol=1e-15)


def test_fused_precision_small_cases():
    t = fused_prior(np.ones(2), np.ones(1))
    np.testing.assert_array_equal(to_dense(t), [[2.0, -1.0], [-1.0, 2.0]])

    t = fused_prior(np.ones(3), np.ones(2))
    np.testing.assert_array_equal(
        to_dense(t), [[2.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 2.0]])


def test_fused_precision_general_entries():
    t = fused_prior([4.0, 1.0, 2.0], [2.0, 5.0])
    np.testing.assert_allclose(t.diag, [0.75, 1.7, 0.7], rtol=1e-15)
    np.testing.assert_allclose(t.off, [-0.5, -0.2], rtol=1e-15)


def test_fused_precision_needs_p_at_least_two():
    ds = Dataset(y=np.ones(3), x=np.ones((3, 1)))
    with pytest.raises(ValueError, match="p >= 2"):
        run_chain(KernelKind.TWO_BLOCK, ModelSpec.fused_lasso(1.0, 1.0), ds,
                  RunConfig(n_iter=5, burn_in=0))


def test_fused_precision_row_sums_cancel():
    # row sums reduce to 1/tau_j^2: off-diagonal contributions cancel
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = int(rng.integers(2, 12))
        tau2 = rng.uniform(0.1, 5.0, p)
        omega2 = rng.uniform(0.1, 5.0, p - 1)
        t = fused_prior(tau2, omega2)
        np.testing.assert_allclose(to_dense(t).sum(axis=1), 1.0 / tau2,
                                   rtol=1e-12)


# ---------------------------------------------------------------------------
# the prior object's Q: X^T X + Q for the dense update, Q^-1 for the n-space one
# ---------------------------------------------------------------------------

def assemble(ds, prior_inv):
    """X^T X + diag(prior_inv), Q set by a group lasso prior of one-coefficient groups."""
    spec = ModelSpec.group_lasso(1.0, GroupStructure(np.ones(ds.p, dtype=np.int64)))
    gram = ds.x.T @ ds.x
    return samplers.add_prior_precision(gram, fixed_prior(spec, prior_inv),
                                        out=np.empty_like(gram))


def test_assemble_with_zero_design():
    ds = Dataset(y=np.ones(2), x=np.zeros((2, 2)))
    np.testing.assert_array_equal(assemble(ds, np.ones(2)), np.eye(2))


def test_assemble_with_identity_design():
    ds = Dataset(y=np.ones(2), x=np.eye(2))
    np.testing.assert_array_equal(assemble(ds, np.ones(2)), 2.0 * np.eye(2))


def test_assemble_single_column():
    ds = Dataset(y=np.array([1.0, 1.0]), x=np.array([[1.0], [0.0]]))
    np.testing.assert_array_equal(assemble(ds, np.ones(1)), [[2.0]])


def random_prior(rng, model, p):
    """The chain's prior object for `model` at p coefficients, with Q set from
    random reciprocal scales; the group models get random contiguous groups."""
    if model == "fused":
        return fixed_prior(ModelSpec.fused_lasso(1.0, 1.0),
                           rng.uniform(0.2, 3.0, p), rng.uniform(0.2, 3.0, p - 1))
    cuts = np.flatnonzero(rng.random(p - 1) < 0.5) + 1
    groups = GroupStructure(np.diff(np.concatenate([[0], cuts, [p]])))
    inv_tau2 = rng.uniform(0.2, 3.0, groups.n_groups)
    if model == "group":
        return fixed_prior(ModelSpec.group_lasso(1.0, groups), inv_tau2)
    return fixed_prior(ModelSpec.sparse_group_lasso(1.0, 1.0, groups), inv_tau2,
                       rng.uniform(0.2, 3.0, p))


# the prior objects by the shape of Q: diagonal, or tridiagonal with a band
MODELS_BY_SHAPE = {"diagonal": ("group", "sparse"), "tridiagonal": ("fused",)}


def test_assemble_symmetric_positive_definite():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n, p = int(rng.integers(1, 10)), int(rng.integers(2, 8))
        ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))
        gram = ds.x.T @ ds.x
        for model in ("group", "sparse", "fused"):
            prior = random_prior(rng, model, p)
            a = samplers.add_prior_precision(gram, prior, out=np.empty_like(gram))
            np.testing.assert_allclose(a, a.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(a) > 0)


@pytest.mark.parametrize("kind", ["diagonal", "tridiagonal"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_add_prior_precision_into_workspace_equals_copy(kind, order):
    # every model's prior object, from random fixed scales: add_prior_precision
    # writes exactly gram + Q into the workspace, and quad_form is beta^T Q beta
    rng = np.random.default_rng(12)
    for model in MODELS_BY_SHAPE[kind]:
        for p in (1, 2, 3, 7) if kind == "diagonal" else (2, 3, 7):
            for _ in range(5):
                x = rng.standard_normal((p + 4, p))
                gram = x.T @ x
                prior = random_prior(rng, model, p)
                q = to_dense(prior)
                out = np.full((p, p), np.nan, order=order)
                a = samplers.add_prior_precision(np.asarray(gram, order=order), prior,
                                                 out=out)
                assert a is out
                np.testing.assert_array_equal(a, gram.copy() + q)
                beta = rng.standard_normal(p)
                assert prior.quad_form(beta) == pytest.approx(beta @ q @ beta,
                                                               rel=1e-13)


@pytest.mark.parametrize("model", MODELS_BY_SHAPE["diagonal"])
def test_diagonal_prior_supplies_the_inverse_of_q(model):
    # against the inverse of the dense Q: whiten(X) whiten(X)^T = X Q^-1 X^T,
    # cov(v) = Q^-1 v, and half_cov(z, scale) has covariance scale^2 Q^-1
    rng = np.random.default_rng(14)
    for p in (1, 2, 3, 7):
        for _ in range(5):
            prior = random_prior(rng, model, p)
            q_inv = np.linalg.inv(to_dense(prior))
            x = rng.standard_normal((4, p))
            out = np.full_like(x, np.nan)
            xw = prior.whiten(x, out)
            assert xw is out
            np.testing.assert_allclose(xw @ xw.T, x @ q_inv @ x.T, rtol=1e-12)
            v = rng.standard_normal(p)
            np.testing.assert_allclose(prior.cov(v), q_inv @ v, rtol=1e-12)
            scale = rng.uniform(0.5, 2.0)
            half = np.column_stack([prior.half_cov(e, scale) for e in np.eye(p)])
            np.testing.assert_allclose(half @ half.T, scale * scale * q_inv,
                                       rtol=1e-12)


def test_cholesky_overwrite_factors_in_place():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((9, 5))
    a = np.asfortranarray(x.T @ x + np.eye(5))
    expected = np.tril(cholesky_spd(a.copy()))
    chol = cholesky_spd(a)
    assert np.shares_memory(chol, a)
    np.testing.assert_array_equal(np.tril(chol), expected)


# ---------------------------------------------------------------------------
# the chain's residual-variance scales and beta mean (block update with a
# stub generator: gamma draws 1 and the normals are zero)
# ---------------------------------------------------------------------------

def group_spec(p, alpha=0.0, xi=0.0):
    return ModelSpec.group_lasso(1.0, groups_of(*[1] * p), alpha=alpha, xi=xi)


def marginal(ds, prior_inv, alpha=0.0, xi=0.0):
    """(gamma shape, scale) of the two-block sigma2 draw, Q = diag(prior_inv)."""
    gen = BasisGenerator()
    _, scale = block_draw(group_spec(ds.p, alpha, xi), ds, KernelKind.TWO_BLOCK,
                          np.zeros(ds.p), (prior_inv,), gen)
    return gen.shapes[0], scale


def conditional(ds, beta, prior_inv, alpha=0.0, xi=0.0):
    """(gamma shape, scale) of the three-block sigma2 draw given beta,
    Q = diag(prior_inv)."""
    gen = BasisGenerator()
    _, scale = block_draw(group_spec(ds.p, alpha, xi), ds, KernelKind.THREE_BLOCK,
                          beta, (prior_inv,), gen)
    return gen.shapes[0], scale


def beta_mean(ds, prior_inv):
    return block_draw(group_spec(ds.p), ds, KernelKind.TWO_BLOCK,
                      np.zeros(ds.p), (prior_inv,))[0]


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
    mean, sigma2 = block_draw(spec, ds, KernelKind.TWO_BLOCK, np.zeros(1),
                              (np.ones(1),))
    unit, _ = block_draw(spec, ds, KernelKind.TWO_BLOCK, np.zeros(1), (np.ones(1),),
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
                                 np.zeros(p), (prior_inv,))
        _, conditional_scale = conditional(ds, mean, prior_inv)
        assert scale == pytest.approx(conditional_scale, rel=1e-8)
