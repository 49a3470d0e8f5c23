import math

import numpy as np
import pytest

from blockgibbs import (
    ChainState,
    Dataset,
    FactorizationError,
    GroupStructure,
    KernelKind,
    LatentScales,
    ModelSpec,
    RngStream,
    RunConfig,
    SamplerError,
    conditional_sigma2_params,
    factorization_count,
    initial_chain_state,
    map_jobs,
    reset_factorization_count,
    run_chain,
    sample_inverse_gaussian_vector,
    step_2bg_fused,
    step_2bg_group,
    step_3bg_fused,
    step_3bg_group,
    step_2bg_sparse_group,
    step_3bg_sparse_group,
)
from blockgibbs import samplers
from blockgibbs.diagnostics import autocorr


def small_group_problem():
    rng = np.random.default_rng(123)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal(6) + x @ np.array([1.0, 0.0, -0.5])
    ds = Dataset(y=y, x=x)
    spec = ModelSpec.group_lasso(1.0, GroupStructure(np.array([2, 1])))
    return ds, spec


def mirror_group_latents(spec, beta, sigma2, rng):
    """Replicate the sampler's latent draw for a group model, stream-exactly."""
    g = spec.groups
    sq = np.add.reduceat(beta * beta, g.offsets)
    lam_sq = spec.lam * spec.lam
    with np.errstate(divide="ignore"):
        mu = np.sqrt(lam_sq * sigma2 / sq)
    return sample_inverse_gaussian_vector(mu, lam_sq, rng)


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
    state = initial_chain_state(spec, ds)
    np.testing.assert_array_equal(state.beta, np.zeros(3))
    assert state.sigma2 == pytest.approx(np.var(ds.y, ddof=1))
    np.testing.assert_array_equal(state.scales.tau2, np.ones(2))


def test_wall_time_positive_and_loop_only():
    ds, spec = small_group_problem()
    out = run_chain(KernelKind.TWO_BLOCK, spec, ds,
                    RunConfig(n_iter=200, burn_in=0, seed=1))
    assert out.wall_time_seconds > 0.0


def test_step_rejects_wrong_model_kind():
    ds, spec = small_group_problem()
    state = initial_chain_state(spec, ds)
    with pytest.raises(ValueError, match="fused-lasso"):
        step_2bg_fused(state, ds, spec, RngStream(0))


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


# ---------------------------------------------------------------------------
# exact per-step conditionals (mirrored random streams)
# ---------------------------------------------------------------------------

def test_group_latent_mean_parameter_unity():
    # ||beta_k||^2 = lam^2 sigma2 makes the inverse-Gaussian mean exactly 1
    ds, spec = small_group_problem()
    sigma2 = 4.0
    beta = np.array([2.0, 0.0, 2.0])  # both group norms are 4 = lam^2 sigma2
    state = ChainState(beta=beta, sigma2=sigma2,
                       scales=LatentScales(tau2=np.ones(2)))
    mirror = RngStream(31)
    expected_inv = sample_inverse_gaussian_vector(np.ones(2), 1.0, mirror)
    new = step_2bg_group(state, ds, spec, RngStream(31))
    np.testing.assert_array_equal(new.scales.tau2, 1.0 / expected_inv)


def test_zero_beta_initialization_uses_limit_branch():
    # beta0 = 0 forces every latent draw through the large-mean limit
    ds, spec = small_group_problem()
    lam_sq = spec.lam * spec.lam
    state = initial_chain_state(spec, ds)
    mirror = RngStream(13)
    z = mirror.generator.standard_normal(2)
    new = step_2bg_group(state, ds, spec, RngStream(13))
    np.testing.assert_array_equal(new.scales.tau2, 1.0 / (lam_sq / (z * z)))


def test_fused_constant_beta_uses_limit_branch_for_differences():
    ds = Dataset(y=np.arange(1.0, 7.0), x=np.vstack([np.eye(3)] * 2))
    spec = ModelSpec.fused_lasso(1.0, 2.0)
    beta = np.full(3, 1.5)
    state = ChainState(beta=beta, sigma2=1.0,
                       scales=LatentScales(tau2=np.ones(3), omega2=np.ones(2)))
    mirror = RngStream(5)
    mirror.generator.standard_normal(3)  # tau draws consume first
    mirror.generator.random(3)
    z = mirror.generator.standard_normal(2)
    new = step_2bg_fused(state, ds, spec, RngStream(5))
    lam2_sq = spec.lam2 * spec.lam2
    np.testing.assert_array_equal(new.scales.omega2, 1.0 / (lam2_sq / (z * z)))


def test_2bg_sigma2_matches_marginal_conditional():
    # mirror the stream: the sigma2 draw must equal scale / gamma with the
    # scale computed from the marginalized conditional (dense arithmetic)
    ds, spec = small_group_problem()
    state = ChainState(beta=np.array([0.3, -0.2, 0.9]), sigma2=1.7,
                       scales=LatentScales(tau2=np.ones(2)))
    mirror = RngStream(41)
    inv_tau2 = mirror_group_latents(spec, state.beta, state.sigma2, mirror)
    prior_inv = np.repeat(inv_tau2, spec.groups.group_sizes)
    a = ds.x.T @ ds.x + np.diag(prior_inv)
    xty = ds.x.T @ ds.y
    scale = 0.5 * (ds.y @ ds.y - xty @ np.linalg.inv(a) @ xty)
    g = mirror.generator.gamma(0.5 * ds.n)
    new = step_2bg_group(state, ds, spec, RngStream(41))
    assert new.sigma2 == pytest.approx(scale / g, rel=1e-10)


def test_3bg_sigma2_matches_full_conditional():
    ds, spec = small_group_problem()
    state = ChainState(beta=np.array([0.3, -0.2, 0.9]), sigma2=1.7,
                       scales=LatentScales(tau2=np.ones(2)))
    mirror = RngStream(43)
    inv_tau2 = mirror_group_latents(spec, state.beta, state.sigma2, mirror)
    prior_inv = np.repeat(inv_tau2, spec.groups.group_sizes)
    shape, scale = conditional_sigma2_params(ds, state.beta, prior_inv,
                                             spec.alpha, spec.xi)
    assert shape == 0.5 * (ds.n + ds.p)
    g = mirror.generator.gamma(shape)
    new = step_3bg_group(state, ds, spec, RngStream(43))
    assert new.sigma2 == pytest.approx(scale / g, rel=1e-12)


def test_3bg_beta_draw_follows_sigma2():
    # after the sigma2 draw, beta = A^-1 X'Y + sqrt(sigma2) L^-T z
    ds, spec = small_group_problem()
    state = ChainState(beta=np.array([0.3, -0.2, 0.9]), sigma2=1.7,
                       scales=LatentScales(tau2=np.ones(2)))
    mirror = RngStream(47)
    inv_tau2 = mirror_group_latents(spec, state.beta, state.sigma2, mirror)
    prior_inv = np.repeat(inv_tau2, spec.groups.group_sizes)
    a = ds.x.T @ ds.x + np.diag(prior_inv)
    g = mirror.generator.gamma(0.5 * (ds.n + ds.p))
    z = mirror.generator.standard_normal(ds.p)
    _, scale = conditional_sigma2_params(ds, state.beta, prior_inv, 0.0, 0.0)
    sigma2 = scale / g
    chol = np.linalg.cholesky(a)
    mean = np.linalg.solve(a, ds.x.T @ ds.y)
    expected = mean + math.sqrt(sigma2) * np.linalg.solve(chol.T, z)
    new = step_3bg_group(state, ds, spec, RngStream(47))
    np.testing.assert_allclose(new.beta, expected, rtol=1e-8)


def test_zero_design_marginal_matches_closed_form():
    # X = 0: sigma2 | scales is inverse-gamma(n/2, ||Y||^2 / 2) for any scales
    y = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.0, 0.7, -0.3])
    ds = Dataset(y=y, x=np.zeros((8, 2)))
    spec = ModelSpec.group_lasso(1.0, GroupStructure(np.array([2])))
    out = run_chain(KernelKind.TWO_BLOCK, spec, ds,
                    RunConfig(n_iter=20_000, burn_in=0, seed=12, store_beta=True),
                    freeze_scales=True,
                    initial_state=initial_chain_state(spec, ds))
    shape, scale = 4.0, y @ y / 2.0
    target_mean = scale / (shape - 1.0)
    target_sd = math.sqrt(scale ** 2 / ((shape - 1) ** 2 * (shape - 2)))
    n = out.sigma2_draws.shape[0]
    assert abs(out.sigma2_draws.mean() - target_mean) < 4 * target_sd / math.sqrt(n)
    # beta is centered at zero when X = 0
    se_beta = out.beta_draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(out.beta_draws.mean(axis=0)) < 4 * se_beta)


def test_frozen_scales_draws_are_uncorrelated():
    ds, spec = small_group_problem()
    state = ChainState(beta=np.zeros(3), sigma2=1.0,
                       scales=LatentScales(tau2=np.array([0.7, 1.3])))
    out = run_chain(KernelKind.TWO_BLOCK, spec, ds,
                    RunConfig(n_iter=20_000, burn_in=0, seed=6),
                    freeze_scales=True, initial_state=state)
    assert abs(autocorr(out.sigma2_draws, 1)) < 4 / math.sqrt(20_000)


# ---------------------------------------------------------------------------
# factorization accounting and parallel mapping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("step", [step_2bg_group, step_3bg_group])
def test_group_steps_factor_exactly_once(step):
    ds, spec = small_group_problem()
    state = initial_chain_state(spec, ds)
    reset_factorization_count()
    step(state, ds, spec, RngStream(1))
    assert factorization_count() == 1


@pytest.mark.parametrize("step,maker", [
    (step_2bg_sparse_group, "sparse"),
    (step_3bg_sparse_group, "sparse"),
    (step_2bg_fused, "fused"),
    (step_3bg_fused, "fused"),
])
def test_other_steps_factor_exactly_once(step, maker):
    ds, _ = small_group_problem()
    if maker == "sparse":
        spec = ModelSpec.sparse_group_lasso(1.0, 1.0, GroupStructure(np.array([2, 1])))
    else:
        spec = ModelSpec.fused_lasso(1.0, 1.0)
    state = initial_chain_state(spec, ds)
    reset_factorization_count()
    step(state, ds, spec, RngStream(1))
    assert factorization_count() == 1


def test_run_chain_factors_once_per_iteration():
    ds, spec = small_group_problem()
    reset_factorization_count()
    run_chain(KernelKind.TWO_BLOCK, spec, ds, RunConfig(n_iter=37, burn_in=0, seed=1))
    assert factorization_count() == 37


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


def _square(v):
    return v * v


def test_map_jobs_preserves_order():
    items = list(range(20))
    assert map_jobs(_square, items, jobs=1) == [v * v for v in items]
    assert map_jobs(_square, items, jobs=2) == [v * v for v in items]
