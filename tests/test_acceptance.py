"""Acceptance suite: one test per criterion, printed pass/fail per line.

Statistical targets marked as oracle constants were computed by the
deterministic quadrature / analytic routines in tests/compute_oracles.py
and frozen here; every tolerance below is fixed up front (4 standard errors
for distribution moments, 3 Monte Carlo standard errors for chain means,
stated relative bands for ESS ratios).

Run with `pytest tests/test_acceptance.py -v -s` for the detail lines.
"""
import csv
import math
import time

import numpy as np
import pytest
from scipy.signal import lfilter

from blockgibbs import (
    Dataset,
    GroupStructure,
    KernelKind,
    ModelSpec,
    RngStream,
    RunConfig,
    autocorr,
    ess_univariate,
    factorization_count,
    initial_chain_state,
    run_chain,
    sample_inverse_gamma,
    sample_inverse_gaussian,
    sample_mvn_precision,
    samplers,
)
from blockgibbs.cli import main as cli_main
from block_stubs import block_draw, fixed_prior, frozen_scale_draws, to_dense

# ---------------------------------------------------------------------------
# tiny-instance posterior means from the quadrature oracles
# (tests/compute_oracles.py; grids converged to ~1e-9)
# ---------------------------------------------------------------------------

GROUP_ORACLE = {"sigma2": 1.3736014369, "beta": (0.5055942524,)}
SPARSE_ORACLE = {"sigma2": 1.4325940593, "beta": (0.2696237627,)}
FUSED_ORACLE = {"sigma2": 1.1963880048, "beta": (0.9446663039, 1.7686355813)}


def tiny_group_instance():
    x = np.zeros((6, 1))
    x[0, 0] = 1.0
    ds = Dataset(y=np.ones(6), x=x)
    groups = GroupStructure(np.array([1]))
    return ds, groups


def tiny_fused_instance():
    y = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 3.0])
    return Dataset(y=y, x=np.vstack([np.eye(2)] * 3))


def mc_se(draws: np.ndarray) -> float:
    return draws.std(ddof=1) / math.sqrt(ess_univariate(draws))


@pytest.fixture(scope="module")
def tiny_chains():
    """Six chains (three models x both kernels) on the tiny instances."""
    ds_g, groups = tiny_group_instance()
    ds_f = tiny_fused_instance()
    cases = {
        "group": (ModelSpec.group_lasso(1.0, groups), ds_g, GROUP_ORACLE),
        "sparse": (ModelSpec.sparse_group_lasso(1.0, 1.0, groups), ds_g,
                   SPARSE_ORACLE),
        "fused": (ModelSpec.fused_lasso(1.0, 1.0), ds_f, FUSED_ORACLE),
    }
    cfg = RunConfig(n_iter=210_000, burn_in=10_000, seed=20_26, store_beta=True)
    outputs = {}
    t0 = time.perf_counter()
    for name, (spec, ds, _) in cases.items():
        for kernel in (KernelKind.TWO_BLOCK, KernelKind.THREE_BLOCK):
            outputs[(name, kernel)] = run_chain(kernel, spec, ds, cfg)
    elapsed = time.perf_counter() - t0
    return cases, outputs, elapsed


# ---------------------------------------------------------------------------
# criterion 1: conjugate exactness with frozen scales
# ---------------------------------------------------------------------------

def test_criterion_1_conjugate_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    n, p = 8, 3
    x = rng.standard_normal((n, p))
    y = x @ np.array([1.0, -0.5, 0.25]) + rng.standard_normal(n)
    ds = Dataset(y=y, x=x)
    groups = GroupStructure(np.array([2, 1]))
    spec = ModelSpec.group_lasso(1.0, groups)
    tau2 = np.array([0.7, 1.3])
    sigma2_draws, beta_draws = frozen_scale_draws(
        spec, ds, KernelKind.TWO_BLOCK, (1.0 / tau2,), n_iter=100_000, seed=1)

    # independent dense-arithmetic targets
    prior_inv = np.repeat(1.0 / tau2, [2, 1])
    a = x.T @ x + np.diag(prior_inv)
    a_inv = np.linalg.inv(a)
    shape = n / 2.0
    scale = 0.5 * (y @ y - (x.T @ y) @ a_inv @ (x.T @ y))
    target_sigma2 = scale / (shape - 1.0)
    target_beta = a_inv @ (x.T @ y)

    m = sigma2_draws.size
    se_s2 = sigma2_draws.std(ddof=1) / math.sqrt(m)
    err_s2 = abs(sigma2_draws.mean() - target_sigma2)
    assert err_s2 < 4 * se_s2, f"sigma2 mean off by {err_s2} vs 4*SE {4 * se_s2}"

    se_b = beta_draws.std(axis=0, ddof=1) / math.sqrt(m)
    err_b = np.abs(beta_draws.mean(axis=0) - target_beta)
    assert np.all(err_b < 4 * se_b), f"beta mean off by {err_b} vs 4*SE {4 * se_b}"

    elapsed = time.perf_counter() - t0
    print(f"[criterion 1] conjugate exactness: |dE[s2]|={err_s2:.2e} "
          f"(4SE={4 * se_s2:.2e}), max beta dev {err_b.max():.2e}; "
          f"{elapsed:.1f}s (< 10s) PASS")
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criteria 2 and 3: quadrature-oracle equivalence and kernel agreement
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_2_quadrature_oracles(tiny_chains):
    cases, outputs, elapsed = tiny_chains
    for name, (_, _, oracle) in cases.items():
        for kernel in (KernelKind.TWO_BLOCK, KernelKind.THREE_BLOCK):
            out = outputs[(name, kernel)]
            dev = abs(out.sigma2_draws.mean() - oracle["sigma2"])
            tol = 3 * mc_se(out.sigma2_draws)
            print(f"[criterion 2] {name}/{kernel.value}: E[s2] dev {dev:.2e} "
                  f"(3SE={tol:.2e})")
            assert dev < tol, f"{name}/{kernel.value} sigma2 vs oracle"
            for j, target in enumerate(oracle["beta"]):
                bj = out.beta_draws[:, j]
                dev_b = abs(bj.mean() - target)
                tol_b = 3 * mc_se(bj)
                assert dev_b < tol_b, f"{name}/{kernel.value} beta[{j}] vs oracle"
    print(f"[criterion 2] all six chains match quadrature oracles; "
          f"chains took {elapsed:.0f}s (< 120s) PASS")
    assert elapsed < 120.0


@pytest.mark.slow
def test_criterion_3_kernel_agreement(tiny_chains):
    cases, outputs, _ = tiny_chains
    for name in cases:
        two = outputs[(name, KernelKind.TWO_BLOCK)]
        three = outputs[(name, KernelKind.THREE_BLOCK)]
        gap = abs(two.sigma2_draws.mean() - three.sigma2_draws.mean())
        tol = 3 * math.hypot(mc_se(two.sigma2_draws), mc_se(three.sigma2_draws))
        print(f"[criterion 3] {name}: |E2-E3|={gap:.2e} (3SE={tol:.2e})")
        assert gap < tol, f"{name}: kernels disagree on E[sigma2]"
        for j in range(two.beta_draws.shape[1]):
            gap_b = abs(two.beta_draws[:, j].mean() - three.beta_draws[:, j].mean())
            tol_b = 3 * math.hypot(mc_se(two.beta_draws[:, j]),
                                   mc_se(three.beta_draws[:, j]))
            assert gap_b < tol_b, f"{name}: kernels disagree on beta[{j}]"
    print("[criterion 3] two- and three-block kernels share the posterior PASS")


# ---------------------------------------------------------------------------
# criteria 4 and 5: scaled mixing / efficiency orderings (group lasso grid)
# ---------------------------------------------------------------------------

def _run_bench_grid(tmp_path, tag, argv_tail):
    raw = tmp_path / f"{tag}_raw.csv"
    agg = tmp_path / f"{tag}_agg.csv"
    t0 = time.perf_counter()
    code = cli_main(argv_tail + ["--out-raw", str(raw), "--out-agg", str(agg)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    with open(raw) as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["status"] == "ok" for r in rows)
    return rows, elapsed


def _cell_means(rows, field):
    out = {}
    for r in rows:
        key = (int(r["n"]), int(r["p"]), r["kernel"])
        out.setdefault(key, []).append(float(r[field]))
    return {k: float(np.mean(v)) for k, v in out.items()}


@pytest.fixture(scope="module")
def group_grid(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench_group")
    argv = ["bench", "--model", "group-lasso", "--scenario", "s1",
            "--n", "50", "--K", "10,50", "--reps", "20", "--seed", "97531"]
    return _run_bench_grid(tmp, "group", argv)


@pytest.mark.slow
def test_criterion_4_mixing_ordering(group_grid):
    rows, elapsed = group_grid
    rho = _cell_means(rows, "rho1")
    for p in (50, 250):
        two, three = rho[(50, p, "2bg")], rho[(50, p, "3bg")]
        print(f"[criterion 4] p={p}: mean rho1 2bg={two:.3f} 3bg={three:.3f}")
        assert two < three, f"p={p}: two-block should mix faster"
    assert rho[(50, 250, "2bg")] < 0.45, "two-block rho1 at p=250 exceeds 0.45"
    print(f"[criterion 4] ordering holds in every cell; grid took "
          f"{elapsed:.0f}s (< 900s) PASS")
    assert elapsed < 900.0


@pytest.mark.slow
def test_criterion_5_efficiency_ordering(group_grid):
    rows, _ = group_grid
    eff = _cell_means(rows, "ess_per_second")
    for p in (50, 250):
        two, three = eff[(50, p, "2bg")], eff[(50, p, "3bg")]
        print(f"[criterion 5] p={p}: mean ESS/s 2bg={two:.1f} 3bg={three:.1f} "
              f"(ratio {two / three:.2f})")
        assert two > three, f"p={p}: two-block should be more efficient"
    ratio = eff[(50, 250, "2bg")] / eff[(50, 250, "3bg")]
    assert ratio >= 2.0, f"efficiency ratio at p=250 is {ratio:.2f} < 2"
    print("[criterion 5] efficiency ordering holds PASS")


# ---------------------------------------------------------------------------
# criterion 6: fused-lasso mixing ordering on the correlated-design scenario
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_fused_ordering(tmp_path):
    argv = ["bench", "--model", "fused-lasso", "--scenario", "s2",
            "--n", "100", "--p", "50,200", "--reps", "10", "--seed", "24680"]
    rows, elapsed = _run_bench_grid(tmp_path, "fused", argv)
    rho = _cell_means(rows, "rho1")
    for p in (50, 200):
        two, three = rho[(100, p, "2bg")], rho[(100, p, "3bg")]
        print(f"[criterion 6] p={p}: mean rho1 2bg={two:.3f} 3bg={three:.3f}")
        assert two < three, f"p={p}: two-block should mix faster"
    print(f"[criterion 6] fused ordering holds; grid took {elapsed:.0f}s "
          f"(< 900s) PASS")
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# criterion 7: distribution sampler suite
# ---------------------------------------------------------------------------

def test_criterion_7_distribution_suite():
    t0 = time.perf_counter()
    n = 100_000
    mu, lam = 2.0, 3.0
    draws = sample_inverse_gaussian(mu, lam, RngStream(71), size=n)
    var = mu ** 3 / lam
    mu4 = (15 * mu / lam + 3) * var ** 2
    checks = [
        ("IG mean", draws.mean(), mu, 4 * math.sqrt(var / n)),
        ("IG variance", draws.var(ddof=1), var,
         4 * math.sqrt((mu4 - var ** 2) / n)),
        ("IG reciprocal", (1 / draws).mean(), 1 / mu + 1 / lam,
         4 * math.sqrt((1 / (mu * lam) + 2 / lam ** 2) / n)),
    ]
    ig_draws = sample_inverse_gamma(3.0, 4.0, RngStream(72), size=n)
    checks.append(("inv-gamma mean", ig_draws.mean(), 2.0, 4 * math.sqrt(4.0 / n)))

    for name, got, want, tol in checks:
        print(f"[criterion 7] {name}: {got:.5f} vs {want:.5f} (tol {tol:.2e})")
        assert abs(got - want) < tol, name

    m = 50_000
    rng = RngStream(73)
    prec = np.array([[2.0, -1.0], [-1.0, 2.0]])
    mv = np.stack([sample_mvn_precision(np.array([1.0, 0.0]), prec, 2.0, rng)
                   for _ in range(m)])
    target_cov = (2.0 / 3.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    emp = np.cov(mv.T)
    for i in range(2):
        for j in range(2):
            tol = 4 * math.sqrt((target_cov[i, i] * target_cov[j, j]
                                 + target_cov[i, j] ** 2) / m)
            assert abs(emp[i, j] - target_cov[i, j]) < tol, f"cov[{i},{j}]"
    elapsed = time.perf_counter() - t0
    print(f"[criterion 7] distribution suite in {elapsed:.1f}s (< 30s) PASS")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 8: diagnostics suite
# ---------------------------------------------------------------------------

def test_criterion_8_diagnostics_suite():
    gen = np.random.default_rng(81)
    for phi, target, rel in [(0.5, 1.0 / 3.0, 0.10), (0.9, 1.0 / 19.0, 0.15)]:
        x = lfilter([1.0], [1.0, -phi], gen.standard_normal(1_000_000))
        ratio = ess_univariate(x) / x.size
        print(f"[criterion 8] AR(1) phi={phi}: ESS/N={ratio:.4f} "
              f"target {target:.4f} (+/-{rel:.0%})")
        assert abs(ratio - target) <= rel * target

    iid = gen.standard_normal(100_000)
    ratio = ess_univariate(iid) / iid.size
    print(f"[criterion 8] iid: ESS/N={ratio:.3f}")
    assert 0.9 <= ratio <= 1.1

    alt = np.tile([1.0, -1.0], 5_000)
    rho1 = autocorr(alt, 1)
    print(f"[criterion 8] alternating: rho1={rho1:.6f}")
    assert rho1 <= -0.999
    print("[criterion 8] diagnostics suite PASS")


# ---------------------------------------------------------------------------
# criterion 9: structural invariants
# ---------------------------------------------------------------------------

def test_criterion_9_structural_invariants(tmp_path):
    # fused precision row sums collapse to the pure 1/tau2 terms
    rng = np.random.default_rng(91)
    fused = ModelSpec.fused_lasso(1.0, 1.0)
    for _ in range(25):
        p = int(rng.integers(2, 15))
        tau2 = rng.uniform(0.05, 4.0, p)
        omega2 = rng.uniform(0.05, 4.0, p - 1)
        tri = fixed_prior(fused, 1.0 / tau2, 1.0 / omega2)
        np.testing.assert_allclose(to_dense(tri).sum(axis=1), 1.0 / tau2,
                                   rtol=1e-12)
    print("[criterion 9] fused row-sum identity holds")

    # marginal-vs-conditional quadratic-form identity, 100 random instances,
    # through the chain's own two-block update (dense when p <= n, n-space
    # when p > n): its sigma2 scale against its conditional mean of beta
    updates = set()
    for _ in range(100):
        n, p = int(rng.integers(1, 12)), int(rng.integers(1, 10))
        ds = Dataset(y=rng.standard_normal(n), x=rng.standard_normal((n, p)))
        prior_inv = rng.uniform(0.2, 3.0, p)
        spec = ModelSpec.group_lasso(1.0, GroupStructure(np.ones(p, dtype=np.int64)))
        updates.add(samplers._block_update(spec, ds))
        mean, scale = block_draw(spec, ds, KernelKind.TWO_BLOCK, np.zeros(p),
                                 (prior_inv,))
        resid = ds.y - ds.x @ mean
        rhs = 0.5 * (resid @ resid + prior_inv @ (mean * mean))
        assert scale == pytest.approx(rhs, rel=1e-8)
    assert updates == {"dense", "nspace"}
    print("[criterion 9] quadratic-form identity holds to 1e-8 relative")

    # one factorization per iteration, both kernels: one run_chain iteration
    rngx = np.random.default_rng(92)
    x = rngx.standard_normal((10, 4))
    ds = Dataset(y=rngx.standard_normal(10), x=x)
    for spec, kernel in [
        (ModelSpec.group_lasso(1.0, GroupStructure(np.array([2, 2]))),
         KernelKind.TWO_BLOCK),
        (ModelSpec.sparse_group_lasso(1.0, 1.0, GroupStructure(np.array([2, 2]))),
         KernelKind.TWO_BLOCK),
        (ModelSpec.fused_lasso(1.0, 1.0), KernelKind.THREE_BLOCK),
    ]:
        before = factorization_count()
        run_chain(kernel, spec, ds, RunConfig(n_iter=1, burn_in=0, store_beta=True),
                  rng=RngStream(5), initial_state=initial_chain_state(ds))
        assert factorization_count() - before == 1
    print("[criterion 9] exactly one factorization per Gibbs iteration")

    # end-to-end seed determinism of the bench pipeline: byte-identical raw
    # CSV apart from the two wall-clock measurement columns
    argv = ["bench", "--model", "group-lasso", "--scenario", "s1",
            "--n", "15", "--K", "1,2", "--reps", "2",
            "--iters", "200", "--burnin", "40", "--seed", "5150"]
    paths = []
    for tag in ("one", "two"):
        raw = tmp_path / f"det_{tag}.csv"
        agg = tmp_path / f"det_{tag}_agg.csv"
        assert cli_main(argv + ["--out-raw", str(raw), "--out-agg", str(agg)]) == 0
        paths.append(raw)

    def strip_timing(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        head = rows[0]
        keep = [i for i, c in enumerate(head)
                if c not in ("wall_time_seconds", "ess_per_second")]
        return "\n".join(",".join(r[i] for i in keep) for r in rows).encode()

    assert strip_timing(paths[0]) == strip_timing(paths[1])
    print("[criterion 9] repeat bench runs are byte-identical outside "
          "wall-clock columns PASS")
