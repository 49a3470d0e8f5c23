import gc
import math
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

from blockgibbs import (
    ChainState,
    Dataset,
    DimensionMismatchError,
    FactorizationError,
    GroupStructure,
    KernelKind,
    ModelKind,
    ModelSpec,
    RngStream,
    RunConfig,
    SamplerError,
    factorization_count,
    initial_chain_state,
    run_chain,
    sample_inverse_gaussian_vector,
    samplers,
)
from blockgibbs import _kernels
from blockgibbs._linalg import cholesky_spd, solve_lower
from blockgibbs.cli import map_jobs
from blockgibbs.diagnostics import autocorr
from block_stubs import BasisGenerator, fixed_prior, frozen_scale_draws, read_off_maps

TWO, THREE = KernelKind.TWO_BLOCK, KernelKind.THREE_BLOCK


def small_group_problem():
    rng = np.random.default_rng(123)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal(6) + x @ np.array([1.0, 0.0, -0.5])
    ds = Dataset(y=y, x=x)
    spec = ModelSpec.group_lasso(1.0, GroupStructure(np.array([2, 1])))
    return ds, spec


def full_conditional_scale(ds, beta, prior_precision, xi=0.0):
    """Dense three-block sigma2 scale 0.5 (||y - X beta||^2 + beta' Q beta) + xi."""
    resid = ds.y - ds.x @ beta
    return 0.5 * (resid @ resid + beta @ prior_precision @ beta) + xi


def one_iteration(kernel, state, ds, spec, rng):
    """The state one `run_chain` iteration from `state` hands on."""
    out = run_chain(kernel, spec, ds, RunConfig(n_iter=1, burn_in=0, store_beta=True),
                    rng=rng, initial_state=state)
    return ChainState(beta=out.beta_draws[0], sigma2=out.sigma2_draws[0])


def latent_draw(spec, beta, sigma2, rng):
    """The chain's reciprocal latent-scale draws from (beta, sigma2)."""
    with np.errstate(**samplers._QUIET):
        return samplers._chain_prior(spec).draw(beta, sigma2, rng.generator)


def mirror_latents(spec, beta, sigma2, rng):
    """The chain's latent draw rebuilt from `sample_inverse_gaussian_vector`
    calls on `rng`, in the draw-order contract's order."""
    def draw(lam, sq):
        with np.errstate(divide="ignore"):
            mu = np.sqrt(lam * lam * sigma2 / sq)
        return sample_inverse_gaussian_vector(mu, lam * lam, rng)

    if spec.kind is ModelKind.FUSED_LASSO:
        diffs = np.diff(beta)
        return draw(spec.lam1, beta * beta), draw(spec.lam2, diffs * diffs)
    sq = np.add.reduceat(beta * beta, spec.groups.offsets)
    if spec.kind is ModelKind.GROUP_LASSO:
        return (draw(spec.lam, sq),)
    return draw(spec.lam1, sq), draw(spec.lam2, beta * beta)


# ---------------------------------------------------------------------------
# chain driver mechanics
# ---------------------------------------------------------------------------

def test_draw_counts():
    ds, spec = small_group_problem()
    out = run_chain(KernelKind.TWO_BLOCK, spec, ds,
                    RunConfig(n_iter=1000, burn_in=100, seed=1))
    assert out.sigma2_draws.shape == (900,)
    assert out.beta_draws is None

    out = run_chain(KernelKind.TWO_BLOCK, spec, ds,
                    RunConfig(n_iter=1000, burn_in=100, seed=1, thin=3,
                              store_beta=True))
    assert out.sigma2_draws.shape == (300,)
    assert out.beta_draws.shape == (300, 3)


def test_same_seed_bitwise_identical():
    ds, spec = small_group_problem()
    cfg = RunConfig(n_iter=400, burn_in=50, seed=77, store_beta=True)
    a = run_chain(KernelKind.THREE_BLOCK, spec, ds, cfg)
    b = run_chain(KernelKind.THREE_BLOCK, spec, ds, cfg)
    np.testing.assert_array_equal(a.sigma2_draws, b.sigma2_draws)
    np.testing.assert_array_equal(a.beta_draws, b.beta_draws)
    assert a.seed == b.seed == 77


def test_thinning_keeps_thin_spaced_draws():
    ds, spec = small_group_problem()
    dense = run_chain(KernelKind.TWO_BLOCK, spec, ds,
                      RunConfig(n_iter=130, burn_in=10, seed=9))
    thinned = run_chain(KernelKind.TWO_BLOCK, spec, ds,
                        RunConfig(n_iter=130, burn_in=10, seed=9, thin=4))
    np.testing.assert_array_equal(thinned.sigma2_draws, dense.sigma2_draws[3::4])


def test_positivity_of_stored_draws():
    ds, spec = small_group_problem()
    out = run_chain(KernelKind.THREE_BLOCK, spec, ds,
                    RunConfig(n_iter=500, burn_in=0, seed=3))
    assert np.all(out.sigma2_draws > 0.0)


def test_initial_state():
    ds, spec = small_group_problem()
    state = initial_chain_state(ds)
    np.testing.assert_array_equal(state.beta, np.zeros(3))
    assert state.sigma2 == pytest.approx(np.var(ds.y, ddof=1))


def test_wall_time_positive_and_loop_only():
    ds, spec = small_group_problem()
    out = run_chain(KernelKind.TWO_BLOCK, spec, ds,
                    RunConfig(n_iter=200, burn_in=0, seed=1))
    assert out.wall_time_seconds > 0.0


def test_one_iteration_chain_accepts_kernel_names():
    ds, spec = small_group_problem()
    state = initial_chain_state(ds)
    a = one_iteration("3bg", state, ds, spec, RngStream(8))
    b = one_iteration(THREE, state, ds, spec, RngStream(8))
    np.testing.assert_array_equal(a.beta, b.beta)
    assert a.sigma2 == b.sigma2
    with pytest.raises(ValueError):
        one_iteration("4bg", state, ds, spec, RngStream(8))


def initial_state_problem():
    # n = 8, p = 3, groups (2, 1)
    rng = np.random.default_rng(314)
    ds = Dataset(y=rng.standard_normal(8), x=rng.standard_normal((8, 3)))
    return ds, GroupStructure(np.array([2, 1]))


@pytest.mark.parametrize("length", [2, 5])
def test_run_chain_rejects_initial_beta_of_wrong_length(length):
    ds, groups = initial_state_problem()
    spec = ModelSpec.group_lasso(1.0, groups)
    state = ChainState(beta=np.zeros(length), sigma2=1.0)
    with pytest.raises(DimensionMismatchError,
                       match=f"beta length.*expected length 3, got {length}"):
        run_chain(TWO, spec, ds, RunConfig(n_iter=5, burn_in=0), initial_state=state)


def test_sample_mvn_precision_rejects_order_zero():
    with pytest.raises(DimensionMismatchError, match="precision order"):
        samplers.sample_mvn_precision(np.empty(0), np.empty((0, 0)), 1.0, RngStream(0))


@pytest.mark.parametrize("order", ["C", "F"])
def test_sample_mvn_precision_leaves_the_callers_matrix_unchanged(order):
    # the factorization is in place, on the function's own copy
    x = np.random.default_rng(21).standard_normal((9, 4))
    precision = np.array(x.T @ x + np.eye(4), order=order)
    before = precision.copy(order="K")
    samplers.sample_mvn_precision(np.ones(4), precision, 1.0, RngStream(0))
    np.testing.assert_array_equal(precision, before)
    assert precision.flags[f"{order}_CONTIGUOUS"]


def test_sampler_error_carries_iteration_index():
    # zero response with xi = 0 makes the marginal scale non-positive
    ds = Dataset(y=np.zeros(4), x=np.zeros((4, 1)))
    spec = ModelSpec.group_lasso(1.0, GroupStructure(np.array([1])))
    with pytest.raises(SamplerError, match="iteration 0"):
        run_chain(KernelKind.TWO_BLOCK, spec, ds,
                  RunConfig(n_iter=10, burn_in=0, seed=0))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_iter=10, burn_in=10)
    with pytest.raises(ValueError):
        RunConfig(n_iter=10, burn_in=0, thin=0)


@pytest.mark.parametrize("n_iter,burn_in,thin", [(10, 0, 20), (10, 0, 11), (10, 5, 6)])
def test_run_config_rejects_a_chain_that_keeps_no_draw(n_iter, burn_in, thin):
    # such a chain used to run in full and return empty draws
    with pytest.raises(ValueError, match="keeps 0 draws"):
        RunConfig(n_iter=n_iter, burn_in=burn_in, thin=thin)


def test_shortest_chains_keep_one_draw():
    ds, spec = small_group_problem()
    for config in (RunConfig(n_iter=1, burn_in=0), RunConfig(n_iter=10, burn_in=5, thin=5)):
        assert run_chain(TWO, spec, ds, config).sigma2_draws.shape == (1,)


@pytest.mark.parametrize("field,value", [("n_iter", 10.5), ("n_iter", 10.0),
                                         ("burn_in", 1.5), ("thin", 1.5),
                                         ("seed", 2.5), ("n_iter", "10"),
                                         ("thin", True), ("seed", False)])
def test_run_config_rejects_non_integral_counts(field, value):
    # a float count used to build and then fail inside the loop's range()
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        RunConfig(**{"n_iter": 10, "burn_in": 0, field: value})


def test_run_config_accepts_numpy_integers():
    config = RunConfig(n_iter=np.int64(10), burn_in=np.int32(2), thin=np.int64(2))
    ds, spec = small_group_problem()
    assert run_chain(TWO, spec, ds, config).sigma2_draws.shape == (4,)


# ---------------------------------------------------------------------------
# exact per-iteration conditionals (mirrored random streams)
# ---------------------------------------------------------------------------

def test_group_latent_mean_parameter_unity():
    # ||beta_k||^2 = lam^2 sigma2 makes the inverse-Gaussian mean exactly 1
    _, spec = small_group_problem()
    sigma2 = 4.0
    beta = np.array([2.0, 0.0, 2.0])  # both group norms are 4 = lam^2 sigma2
    mirror = RngStream(31)
    expected_inv = sample_inverse_gaussian_vector(np.ones(2), 1.0, mirror)
    inv_tau2, = latent_draw(spec, beta, sigma2, RngStream(31))
    np.testing.assert_array_equal(inv_tau2, expected_inv)


@pytest.mark.parametrize("model", ["group", "sparse_group", "fused"])
def test_latent_draw_is_the_rng_dist_inverse_gaussian_draw(model):
    # a zero group, a zero coefficient and a zero difference take the
    # large-mean limit; the other entries take the finite-mean transform
    beta = np.array([0.0, 0.0, 0.7, 0.7, -1.2, 0.4])
    groups = GroupStructure(np.array([2, 3, 1]))
    spec = {"group": ModelSpec.group_lasso(1.3, groups),
            "sparse_group": ModelSpec.sparse_group_lasso(0.8, 1.7, groups),
            "fused": ModelSpec.fused_lasso(0.9, 1.4)}[model]
    chain, mirror = RngStream(53), RngStream(53)
    got = latent_draw(spec, beta, 2.1, chain)
    expected = mirror_latents(spec, beta, 2.1, mirror)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)
    # both streams are left at the same position
    assert chain.generator.random() == mirror.generator.random()


def test_zero_beta_initialization_uses_limit_branch():
    # beta0 = 0 forces every latent draw through the large-mean limit
    ds, spec = small_group_problem()
    lam_sq = spec.lam * spec.lam
    state = initial_chain_state(ds)
    mirror = RngStream(13)
    z = mirror.generator.standard_normal(2)
    inv_tau2, = latent_draw(spec, state.beta, state.sigma2, RngStream(13))
    np.testing.assert_array_equal(inv_tau2, lam_sq / (z * z))


def test_fused_constant_beta_uses_limit_branch_for_differences():
    spec = ModelSpec.fused_lasso(1.0, 2.0)
    beta = np.full(3, 1.5)
    mirror = RngStream(5)
    mirror.generator.standard_normal(3)  # tau draws consume first
    mirror.generator.random(3)
    z = mirror.generator.standard_normal(2)
    _, inv_omega2 = latent_draw(spec, beta, 1.0, RngStream(5))
    lam2_sq = spec.lam2 * spec.lam2
    np.testing.assert_array_equal(inv_omega2, lam2_sq / (z * z))


def test_2bg_sigma2_matches_marginal_conditional():
    # mirror the stream: the sigma2 draw must equal scale / gamma with the
    # scale computed from the marginalized conditional (dense arithmetic)
    ds, spec = small_group_problem()
    state = ChainState(beta=np.array([0.3, -0.2, 0.9]), sigma2=1.7)
    mirror = RngStream(41)
    inv_tau2, = mirror_latents(spec, state.beta, state.sigma2, mirror)
    prior_inv = np.repeat(inv_tau2, spec.groups.group_sizes)
    a = ds.x.T @ ds.x + np.diag(prior_inv)
    xty = ds.x.T @ ds.y
    scale = 0.5 * (ds.y @ ds.y - xty @ np.linalg.inv(a) @ xty)
    g = mirror.generator.gamma(0.5 * ds.n)
    new = one_iteration(TWO, state, ds, spec, RngStream(41))
    assert new.sigma2 == pytest.approx(scale / g, rel=1e-10)


def test_3bg_sigma2_matches_full_conditional():
    ds, spec = small_group_problem()
    state = ChainState(beta=np.array([0.3, -0.2, 0.9]), sigma2=1.7)
    mirror = RngStream(43)
    inv_tau2, = mirror_latents(spec, state.beta, state.sigma2, mirror)
    prior_inv = np.repeat(inv_tau2, spec.groups.group_sizes)
    scale = full_conditional_scale(ds, state.beta, np.diag(prior_inv))
    g = mirror.generator.gamma(0.5 * (ds.n + ds.p))
    new = one_iteration(THREE, state, ds, spec, RngStream(43))
    assert new.sigma2 == pytest.approx(scale / g, rel=1e-12)


def test_3bg_sigma2_matches_full_conditional_fused():
    # the fused prior precision enters the scale as its tridiagonal quadratic
    # form; compared here against beta' Q beta with Q built densely
    ds = Dataset(y=np.arange(1.0, 7.0), x=np.vstack([np.eye(3)] * 2))
    spec = ModelSpec.fused_lasso(1.0, 2.0, xi=0.3)
    state = ChainState(beta=np.array([0.4, -1.1, 0.7]), sigma2=1.3)
    mirror = RngStream(44)
    beta = state.beta
    inv_tau2, inv_omega2 = mirror_latents(spec, beta, state.sigma2, mirror)
    q = np.diag(inv_tau2)
    for j, w in enumerate(inv_omega2):
        q[j:j + 2, j:j + 2] += w * np.array([[1.0, -1.0], [-1.0, 1.0]])
    scale = full_conditional_scale(ds, beta, q, spec.xi)
    g = mirror.generator.gamma(0.5 * (ds.n + ds.p))
    new = one_iteration(THREE, state, ds, spec, RngStream(44))
    assert new.sigma2 == pytest.approx(scale / g, rel=1e-12)


def test_3bg_beta_draw_follows_sigma2():
    # after the sigma2 draw, beta = A^-1 X'Y + sqrt(sigma2) L^-T z
    ds, spec = small_group_problem()
    state = ChainState(beta=np.array([0.3, -0.2, 0.9]), sigma2=1.7)
    mirror = RngStream(47)
    inv_tau2, = mirror_latents(spec, state.beta, state.sigma2, mirror)
    prior_inv = np.repeat(inv_tau2, spec.groups.group_sizes)
    a = ds.x.T @ ds.x + np.diag(prior_inv)
    g = mirror.generator.gamma(0.5 * (ds.n + ds.p))
    z = mirror.generator.standard_normal(ds.p)
    sigma2 = full_conditional_scale(ds, state.beta, np.diag(prior_inv)) / g
    chol = np.linalg.cholesky(a)
    mean = np.linalg.solve(a, ds.x.T @ ds.y)
    expected = mean + math.sqrt(sigma2) * np.linalg.solve(chol.T, z)
    new = one_iteration(THREE, state, ds, spec, RngStream(47))
    np.testing.assert_allclose(new.beta, expected, rtol=1e-8)


def test_zero_design_marginal_matches_closed_form():
    # X = 0: sigma2 | scales is inverse-gamma(n/2, ||Y||^2 / 2) for any scales
    y = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.0, 0.7, -0.3])
    ds = Dataset(y=y, x=np.zeros((8, 2)))
    spec = ModelSpec.group_lasso(1.0, GroupStructure(np.array([2])))
    sigma2_draws, beta_draws = frozen_scale_draws(spec, ds, TWO, (np.ones(1),),
                                                  n_iter=20_000, seed=12)
    shape, scale = 4.0, y @ y / 2.0
    target_mean = scale / (shape - 1.0)
    target_sd = math.sqrt(scale ** 2 / ((shape - 1) ** 2 * (shape - 2)))
    n = sigma2_draws.shape[0]
    assert abs(sigma2_draws.mean() - target_mean) < 4 * target_sd / math.sqrt(n)
    # beta is centered at zero when X = 0
    se_beta = beta_draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(beta_draws.mean(axis=0)) < 4 * se_beta)


def test_frozen_scales_draws_are_uncorrelated():
    ds, spec = small_group_problem()
    sigma2_draws, _ = frozen_scale_draws(spec, ds, TWO, (1.0 / np.array([0.7, 1.3]),),
                                         n_iter=20_000, seed=6)
    assert abs(autocorr(sigma2_draws, 1)) < 4 / math.sqrt(20_000)


# ---------------------------------------------------------------------------
# factorization accounting and parallel mapping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [TWO, THREE],
                         ids=["one_iteration_2bg_group", "one_iteration_3bg_group"])
def test_group_steps_factor_exactly_once(kernel):
    ds, spec = small_group_problem()
    before = factorization_count()
    one_iteration(kernel, initial_chain_state(ds), ds, spec, RngStream(1))
    assert factorization_count() - before == 1


@pytest.mark.parametrize("kernel,maker", [
    pytest.param(TWO, "sparse", id="one_iteration_2bg_sparse_group-sparse"),
    pytest.param(THREE, "sparse", id="one_iteration_3bg_sparse_group-sparse"),
    pytest.param(TWO, "fused", id="one_iteration_2bg_fused-fused"),
    pytest.param(THREE, "fused", id="one_iteration_3bg_fused-fused"),
])
def test_other_steps_factor_exactly_once(kernel, maker):
    ds, _ = small_group_problem()
    if maker == "sparse":
        spec = ModelSpec.sparse_group_lasso(1.0, 1.0, GroupStructure(np.array([2, 1])))
    else:
        spec = ModelSpec.fused_lasso(1.0, 1.0)
    before = factorization_count()
    one_iteration(kernel, initial_chain_state(ds), ds, spec, RngStream(1))
    assert factorization_count() - before == 1


def test_run_chain_factors_once_per_iteration():
    ds, spec = small_group_problem()
    before = factorization_count()
    run_chain(KernelKind.TWO_BLOCK, spec, ds, RunConfig(n_iter=37, burn_in=0, seed=1))
    assert factorization_count() - before == 37


@pytest.mark.parametrize("kernel", list(KernelKind))
def test_factor_reuses_one_workspace_array(monkeypatch, kernel):
    # the posterior precision is assembled and factored in place, in the same
    # Fortran-ordered array on every iteration
    ds, spec = small_group_problem()
    seen = []
    real = samplers.cholesky_spd

    def recording(a, *args, **kwargs):
        chol = real(a, *args, **kwargs)
        seen.append((a, np.shares_memory(chol, a), a.flags.f_contiguous))
        return chol

    monkeypatch.setattr(samplers, "cholesky_spd", recording)
    run_chain(kernel, spec, ds, RunConfig(n_iter=5, burn_in=0, seed=3))
    assert len(seen) == 5
    assert all(a is seen[0][0] and shared and fortran for a, shared, fortran in seen)


def test_float_error_state_restored_after_failed_chain(monkeypatch):
    ds, spec = small_group_problem()
    calls = []
    real = samplers.cholesky_spd

    def failing_third(a, *args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise FactorizationError("posterior precision", "injected")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(samplers, "cholesky_spd", failing_third)
    with np.errstate(divide="raise", over="warn", under="warn", invalid="print"):
        before = np.geterr()
        with pytest.raises(SamplerError, match="iteration 2"):
            run_chain(KernelKind.TWO_BLOCK, spec, ds,
                      RunConfig(n_iter=10, burn_in=0, seed=4))
        assert np.geterr() == before


# the layer calls one dense iteration makes, per model: the names
# the benchmark's traced spans wrap, each looked up on its module at call time
LAYER_CALLS = {
    "group": {"group_sqnorms": 1, "expand_by_group": 1, "fused_bands": 0,
              "tridiag_quad_form": 0, "ig_transform": 1},
    "sparse": {"group_sqnorms": 1, "expand_by_group": 1, "fused_bands": 0,
               "tridiag_quad_form": 0, "ig_transform": 2},
    "fused": {"group_sqnorms": 0, "expand_by_group": 0, "fused_bands": 1,
              "tridiag_quad_form": 1, "ig_transform": 2},
}
# the two-block kernel makes one more solve_lower_t, for the mean its scale needs
SAMPLER_CALLS = {"add_prior_precision": 1, "cholesky_spd": 1, "solve_lower": 1,
                 "solve_lower_t": 1}
MEAN_CALLS = {TWO: {"solve_lower_t": 2}, THREE: {}}


LAYER_ITERS = 3


def layer_calls(monkeypatch, model, kernel):
    """(calls per layer name, nested call pairs) of a LAYER_ITERS dense chain."""
    ds, _ = small_group_problem()
    groups = GroupStructure(np.array([2, 1]))
    spec = {"group": ModelSpec.group_lasso(1.0, groups),
            "sparse": ModelSpec.sparse_group_lasso(1.0, 1.0, groups),
            "fused": ModelSpec.fused_lasso(1.0, 1.0)}[model]
    calls, running, nested = {}, [], []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if running:
                nested.append((running[-1], name))
            calls[name] = calls.get(name, 0) + 1
            running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()

        return wrapper

    for name in LAYER_CALLS[model]:
        monkeypatch.setattr(_kernels, name, counting(name, getattr(_kernels, name)))
    for name in SAMPLER_CALLS:
        monkeypatch.setattr(samplers, name, counting(name, getattr(samplers, name)))
    out = run_chain(kernel, spec, ds, RunConfig(n_iter=LAYER_ITERS, burn_in=0, seed=2))
    assert out.block_update == "dense"
    return calls, nested


def per_iteration(counts):
    return {name: count * LAYER_ITERS for name, count in counts.items() if count}


# (model, kernel) cases; the three-block ones are named by the model alone
LAYER_CASES = [pytest.param(model, kernel, id=model if kernel is THREE
                            else f"{model}-{kernel.value}")
               for kernel in (THREE, TWO) for model in LAYER_CALLS]


@pytest.mark.parametrize("model,kernel", LAYER_CASES)
def test_layer_calls_are_looked_up_at_call_time_and_never_nest(monkeypatch, model,
                                                               kernel):
    # wrappers set on the modules after import see every call: a helper bound
    # earlier, by an import of the name or a class attribute, would escape
    # the benchmark's traced spans and make them read 0 without failing; the
    # kernels differ only in the two-block one's solve for its mean
    calls, nested = layer_calls(monkeypatch, model, kernel)
    assert nested == []
    assert calls == per_iteration({**LAYER_CALLS[model], **SAMPLER_CALLS,
                                   **MEAN_CALLS[kernel]})


# ---------------------------------------------------------------------------
# one dense reduction per Dataset, shared by the chains on it
# ---------------------------------------------------------------------------

def count_qr_r(monkeypatch):
    """A list that grows by one entry per `samplers.qr_r` call."""
    calls = []
    real = samplers.qr_r
    monkeypatch.setattr(samplers, "qr_r", lambda x, y: calls.append(1) or real(x, y))
    return calls


def every_model(p):
    groups = GroupStructure(np.array([2] * (p // 2)))
    return [ModelSpec.group_lasso(1.0, groups),
            ModelSpec.sparse_group_lasso(1.0, 1.0, groups),
            ModelSpec.fused_lasso(1.0, 1.0)]


def test_dense_reduction_runs_once_per_dataset(monkeypatch):
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((30, 6)), rng.standard_normal(30)
    calls = count_qr_r(monkeypatch)
    ds = Dataset(y=y, x=x)
    for spec in every_model(6):
        for kernel in (TWO, THREE):
            run_chain(kernel, spec, ds, RunConfig(n_iter=3, burn_in=0, seed=1))
    assert len(calls) == 1
    assert not any(array.flags.writeable for array in samplers._dense_data(ds))
    # a second Dataset built from the same arrays gets its own reduction
    run_chain(TWO, every_model(6)[0], Dataset(y=y, x=x), RunConfig(n_iter=3, burn_in=0))
    assert len(calls) == 2


@pytest.mark.parametrize("n,p", [(30, 6), (6, 6), (4, 6)], ids=["n>p", "n=p", "p>n"])
def test_chains_sharing_a_dataset_draw_as_on_fresh_ones(n, p):
    # at p > n the group models take the n-space update and the fused lasso
    # the dense one, on X itself
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((n, p)), rng.standard_normal(n)
    shared = Dataset(y=y, x=x)
    config = RunConfig(n_iter=20, burn_in=0, seed=5, store_beta=True)
    for spec in every_model(p):
        for kernel in (TWO, THREE):
            reused = run_chain(kernel, spec, shared, config)
            fresh = run_chain(kernel, spec, Dataset(y=y, x=x), config)
            assert reused.sigma2_draws.tobytes() == fresh.sigma2_draws.tobytes()
            assert reused.beta_draws.tobytes() == fresh.beta_draws.tobytes()


def test_one_iteration_calls_reuse_the_reduction(monkeypatch):
    rng = np.random.default_rng(10)
    ds = Dataset(y=rng.standard_normal(30), x=rng.standard_normal((30, 6)))
    calls = count_qr_r(monkeypatch)
    state, stream = initial_chain_state(ds), RngStream(47)
    for _ in range(5):
        state = one_iteration(THREE, state, ds, every_model(6)[0], stream)
    assert len(calls) == 1


@pytest.mark.parametrize("n,p", [(30, 6), (4, 6)], ids=["n>p", "p>n"])
def test_changing_the_callers_arrays_after_a_chain_changes_nothing(n, p):
    # the dataset holds its own copy, so its reduction cannot go stale
    rng = np.random.default_rng(13)
    x, y = rng.standard_normal((n, p)), rng.standard_normal(n)
    fresh = Dataset(y=y, x=x)
    ds = Dataset(y=y, x=x)
    spec = every_model(p)[2]  # the fused lasso takes the dense update at any p
    config = RunConfig(n_iter=20, burn_in=0, seed=6, store_beta=True)
    run_chain(TWO, spec, ds, config)
    x[0, 0], y[0] = 50.0, -50.0
    later = run_chain(THREE, spec, ds, config)
    expected = run_chain(THREE, spec, fresh, config)
    assert later.beta_draws.tobytes() == expected.beta_draws.tobytes()
    assert later.sigma2_draws.tobytes() == expected.sigma2_draws.tobytes()


def test_a_dataset_is_not_kept_alive_by_its_reduction():
    rng = np.random.default_rng(11)
    ds = Dataset(y=rng.standard_normal(30), x=rng.standard_normal((30, 6)))
    run_chain(TWO, every_model(6)[0], ds, RunConfig(n_iter=2, burn_in=0))
    assert ds in samplers._DENSE_DATA
    ref = weakref.ref(ds)
    del ds
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("kernel", [TWO, THREE])
@pytest.mark.parametrize("y_scale", [1e200, 1.0])
@pytest.mark.parametrize("n,p,update", [(20, 4, "dense"), (3, 6, "nspace")])
def test_overflowing_data_raises_sampler_error_not_a_warning(n, p, update, y_scale,
                                                             kernel):
    # finite entries near 1e200 overflow in the response variance and in
    # X^T X or I + X D X^T; no setup step lets a warning reach the caller,
    # and an infinite X^T X fails the chain even when y is moderate
    rng = np.random.default_rng(12)
    ds = Dataset(y=y_scale * rng.standard_normal(n),
                 x=1e200 * rng.standard_normal((n, p)))
    spec = every_model(p)[0]
    assert samplers._block_update(spec, ds) == update
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SamplerError):
            run_chain(kernel, spec, ds, RunConfig(n_iter=5, burn_in=0))


# ---------------------------------------------------------------------------
# block update dispatch and the n-space (p > n) update
# ---------------------------------------------------------------------------

def affine_maps(update, spec, ds, kernel, beta, prior):
    """(mean, sigma2, B B^T) of one block update, read off through BasisGenerator."""
    sampler = {"dense": samplers._dense_block_sampler,
               "nspace": samplers._nspace_block_sampler}[update]
    draw = sampler(spec, ds, kernel)
    n_normals = ds.p if update == "dense" else ds.p + ds.n
    return read_off_maps(lambda gen: draw(beta, prior, gen), n_normals)


def wide_group_problem(seed, model, n=7, p=12):
    rng = np.random.default_rng(seed)
    ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))
    groups = GroupStructure(np.array([3, 4, 2, 3]))
    if model == "group":
        spec = ModelSpec.group_lasso(1.0, groups, alpha=0.5, xi=0.25)
        inv_scales = (rng.uniform(0.3, 3.0, 4),)
    else:
        spec = ModelSpec.sparse_group_lasso(1.0, 1.0, groups, alpha=0.5, xi=0.25)
        inv_scales = (rng.uniform(0.3, 3.0, 4), rng.uniform(0.3, 3.0, p))
    return ds, spec, fixed_prior(spec, *inv_scales), rng.standard_normal(p)


@pytest.mark.parametrize("kernel", list(KernelKind))
@pytest.mark.parametrize("model", ["group", "sparse"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nspace_update_has_the_dense_affine_maps(seed, model, kernel):
    # exact equality of the mean map, the covariance map B B^T = sigma2 A^-1
    # and the sigma2 scale, not Monte Carlo agreement
    ds, spec, prior, beta = wide_group_problem(seed, model)
    mean_d, sigma2_d, cov_d = affine_maps("dense", spec, ds, kernel, beta, prior)
    mean_n, sigma2_n, cov_n = affine_maps("nspace", spec, ds, kernel, beta, prior)
    np.testing.assert_allclose(sigma2_n, sigma2_d, rtol=1e-10)
    np.testing.assert_allclose(mean_n, mean_d, rtol=1e-10)
    np.testing.assert_allclose(cov_n, cov_d, rtol=1e-10, atol=1e-13)
    a = ds.x.T @ ds.x + np.diag(prior.diag)
    np.testing.assert_allclose(cov_n, sigma2_n * np.linalg.inv(a), rtol=1e-10, atol=1e-13)


def exact_marginal_scale(x, y, prior_inv):
    """0.5 y^T (I + X D X^T)^-1 y in rational arithmetic, D = diag(1 / prior_inv)."""
    n, p = x.shape
    m = [[Fraction(int(i == j)) + sum(Fraction(x[i, k]) * Fraction(x[j, k])
                                      / Fraction(prior_inv[k]) for k in range(p))
          for j in range(n)] for i in range(n)]
    b = [Fraction(v) for v in y]
    for c in range(n):
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * pivot for a, pivot in zip(m[r], m[c])]
            b[r] -= f * b[c]
    sol = [Fraction(0)] * n
    for r in reversed(range(n)):
        sol[r] = (b[r] - sum(m[r][k] * sol[k] for k in range(r + 1, n))) / m[r][r]
    return Fraction(1, 2) * sum(Fraction(v) * w for v, w in zip(y, sol))


@pytest.mark.parametrize("seed", range(4))
def test_nspace_scale_near_interpolation(seed):
    # p > n with a nearly flat prior: the fit almost interpolates y, and the
    # two-block scale is a tiny positive number that yty - u.u mostly cancels
    rng = np.random.default_rng(seed)
    ds = Dataset(y=rng.standard_normal(3), x=rng.standard_normal((3, 5)))
    spec = ModelSpec.group_lasso(1.0, GroupStructure(np.array([2, 3])))
    prior_inv = np.full(5, 1e-8)
    exact = exact_marginal_scale(ds.x, ds.y, prior_inv)
    _, scale = samplers._nspace_block_sampler(spec, ds, KernelKind.TWO_BLOCK)(
        np.zeros(5), fixed_prior(spec, np.full(2, 1e-8)), BasisGenerator())
    u = solve_lower(cholesky_spd(ds.x.T @ ds.x + np.diag(prior_inv)), ds.x.T @ ds.y)
    difference = 0.5 * (ds.y @ ds.y - u @ u)
    err_nspace = abs(Fraction(scale) - exact) / exact
    err_difference = abs(Fraction(difference) - exact) / exact
    assert scale > 0.0
    assert err_nspace < 1e-12
    assert err_nspace < err_difference


@pytest.mark.parametrize("model,n,p,update", [
    ("group", 12, 12, "dense"),
    ("sparse", 13, 12, "dense"),
    ("group", 7, 12, "nspace"),
    ("sparse", 7, 12, "nspace"),
    ("fused", 7, 12, "dense"),
    ("fused", 12, 12, "dense"),
])
def test_block_update_dispatch(model, n, p, update):
    rng = np.random.default_rng(5)
    ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))
    groups = GroupStructure(np.array([3, 4, 2, 3]))
    spec = {"group": ModelSpec.group_lasso(1.0, groups),
            "sparse": ModelSpec.sparse_group_lasso(1.0, 1.0, groups),
            "fused": ModelSpec.fused_lasso(1.0, 1.0)}[model]
    out = run_chain(KernelKind.TWO_BLOCK, spec, ds, RunConfig(n_iter=5, burn_in=0, seed=1))
    assert out.block_update == update


@pytest.mark.parametrize("kernel", list(KernelKind))
def test_nspace_factors_order_n_in_one_workspace_array(monkeypatch, kernel):
    # one factorization per iteration, of the n x n matrix, assembled and
    # factored in place in the same Fortran-ordered array every time
    ds, spec, _, _ = wide_group_problem(3, "sparse")
    seen = []
    real = samplers.cholesky_spd

    def recording(a, *args, **kwargs):
        chol = real(a, *args, **kwargs)
        seen.append((a, a.shape, np.shares_memory(chol, a), a.flags.f_contiguous))
        return chol

    monkeypatch.setattr(samplers, "cholesky_spd", recording)
    before = factorization_count()
    out = run_chain(kernel, spec, ds, RunConfig(n_iter=6, burn_in=0, seed=3))
    assert out.block_update == "nspace"
    assert factorization_count() - before == len(seen) == 6
    assert all(a is seen[0][0] and shape == (ds.n, ds.n) and shared and fortran
               for a, shape, shared, fortran in seen)


@pytest.mark.parametrize("kernel", [TWO, THREE],
                         ids=["one_iteration_2bg_group", "one_iteration_3bg_group"])
def test_one_iteration_chain_takes_the_nspace_update(monkeypatch, kernel):
    ds, spec, _, _ = wide_group_problem(4, "group")
    orders = []
    real = samplers.cholesky_spd
    monkeypatch.setattr(samplers, "cholesky_spd",
                        lambda a, *args, **kw: orders.append(a.shape) or real(a, *args, **kw))
    new = one_iteration(kernel, initial_chain_state(ds), ds, spec, RngStream(9))
    assert orders == [(ds.n, ds.n)]
    assert new.beta.shape == (ds.p,) and new.sigma2 > 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("update", ["dense", "nspace"])
@pytest.mark.parametrize("kernel", [TWO, THREE])
def test_non_finite_beta_is_reported_with_its_iteration(monkeypatch, kernel, update, bad):
    # the solve that makes beta returns one non-finite entry in iteration 2;
    # sigma2 is drawn before it and stays finite, so only the check on beta
    # can catch it
    ds, spec = (small_group_problem() if update == "dense"
                else wide_group_problem(5, "group")[:2])
    sigma2_draws = []
    real_sigma2_draw, real_solve = samplers._sigma2_draw, samplers.solve_lower_t

    def counting_sigma2_draw(*args):
        sigma2_draws.append(real_sigma2_draw(*args))
        return sigma2_draws[-1]

    def poisoned_solve(chol, b):
        x = real_solve(chol, b)
        if len(sigma2_draws) == 3:  # after iteration 2's sigma2 draw
            x[0] = bad
        return x

    monkeypatch.setattr(samplers, "_sigma2_draw", counting_sigma2_draw)
    monkeypatch.setattr(samplers, "solve_lower_t", poisoned_solve)
    with pytest.raises(SamplerError, match="iteration 2: non-finite draw") as info:
        run_chain(kernel, spec, ds, RunConfig(n_iter=10, burn_in=0, seed=6))
    assert info.value.iteration == 2
    assert len(sigma2_draws) == 3 and all(map(math.isfinite, sigma2_draws))
    assert samplers._block_update(spec, ds) == update


def _square(v):
    return v * v


def test_map_jobs_preserves_order():
    items = list(range(20))
    assert map_jobs(_square, items, jobs=1) == [v * v for v in items]
    assert map_jobs(_square, items, jobs=2) == [v * v for v in items]


def test_map_jobs_starts_no_more_workers_than_items(monkeypatch):
    # a forking pool starts all max_workers processes at the first job, so
    # 2 items at jobs=4 get 2 workers and 1 item gets no pool at all; the
    # pool forks whatever the platform's default start method
    import concurrent.futures

    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, mp_context=None, **kwargs):
            assert mp_context.get_start_method() == "fork"
            sizes.append(max_workers)
            super().__init__(max_workers, mp_context, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert map_jobs(_square, [3, 4], jobs=4) == [9, 16]
    assert sizes == [2]
    assert map_jobs(_square, [5], jobs=4) == [25]
    assert map_jobs(_square, iter([6, 7]), jobs=4) == [36, 49]
    assert sizes == [2, 2]
