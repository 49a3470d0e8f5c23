"""Standalone oracle computations whose outputs are frozen into the tests.

Run `python tests/compute_oracles.py` to regenerate every derived constant:

* deterministic grid quadrature (log-coordinates, Simpson's rule) for the
  posterior means of sigma2 and beta on the three tiny shrinkage-model
  instances used by the sampler equivalence tests, cross-checked against
  an independent reduction that integrates sigma2 analytically;
* on the same instances and weights, the exact lag-one autocorrelation of
  log sigma2 under each kernel (see `lag_one`);
* the inverse-gamma median used by the distribution tests;
* batch-means cross-checks of the AR(1) integrated autocorrelation times.

Nothing here touches the sampler code paths under test: the weights are
written out from the model densities directly and integrated numerically.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import simpson
from scipy.special import gammaincinv, polygamma

N_OBS = 6  # rows in every tiny instance; sigma2 | scales has shape n/2 = 3


# ---------------------------------------------------------------------------
# instance 1: group lasso, p = 1, X = e1, Y = 1, lambda = 1, alpha = xi = 0
#
# After integrating beta analytically, the unnormalized joint of
# (tau2, sigma2) is
#   (sigma2)^(-n/2-1) exp(-S/(2 sigma2)) (tau2)^(-1/2) a^(-1/2) exp(-tau2/2)
# with a = 1 + 1/tau2 and S = Y'Y - (X'Y)^2/a = 6 - 1/a. The conditional
# posterior mean of beta given the latents is (X'Y)/a = 1/a.
# ---------------------------------------------------------------------------

def group_lasso_2d(n_u: int = 1601, n_v: int = 1601):
    u = np.linspace(-60.0, 10.0, n_u)       # log tau2
    v = np.linspace(-12.0, 40.0, n_v)       # log sigma2
    tau2 = np.exp(u)[:, None]
    sigma2 = np.exp(v)[None, :]
    a = 1.0 + 1.0 / tau2
    s = 6.0 - 1.0 / a
    # includes the Jacobian exp(u + v) of the log transform
    log_w = (0.5 * u[:, None] - 0.5 * np.log(a) - 0.5 * tau2
             - (N_OBS / 2.0) * v[None, :] - s / (2.0 * sigma2))
    w = np.exp(log_w - log_w.max())
    z = simpson(simpson(w, x=v, axis=1), x=u)
    e_sigma2 = simpson(simpson(w * sigma2, x=v, axis=1), x=u) / z
    e_beta = simpson(simpson(w * (1.0 / a), x=v, axis=1), x=u) / z
    # Var[log sigma2] over the joint grid: the lag-one V without the reduction
    var_log_sigma2 = weighted_variance(
        v[None, :], w, lambda f: simpson(simpson(f, x=v, axis=1), x=u))
    return e_sigma2, e_beta, var_log_sigma2


def group_lasso_1d(n_u: int = 200_001):
    # sigma2 integrated analytically: E[sigma2 | tau2] = (S/2)/(n/2 - 1)
    u = np.linspace(-60.0, 10.0, n_u)
    tau2 = np.exp(u)
    a = 1.0 + 1.0 / tau2
    s = 6.0 - 1.0 / a
    log_w = 0.5 * u - 0.5 * np.log(a) - 0.5 * tau2 - (N_OBS / 2.0) * np.log(s / 2.0)
    w = np.exp(log_w - log_w.max())
    z = simpson(w, x=u)
    e_sigma2 = simpson(w * (s / 2.0) / (N_OBS / 2.0 - 1.0), x=u) / z
    e_beta = simpson(w * (1.0 / a), x=u) / z
    return e_sigma2, e_beta, weighted_variance(np.log(s / 2.0), w, lambda f: simpson(f, x=u))


# ---------------------------------------------------------------------------
# instance 2: sparse group lasso, p = 1, same data, lambda1 = lambda2 = 1
#
# The (1/tau2 + 1/gamma2)^(±1/2) factors of the prior and the coefficient
# normalizer cancel, leaving over (tau2, gamma2):
#   (tau2 gamma2)^(-1/2) exp(-(tau2 + gamma2)/2) a^(-1/2) (S/2)^(-n/2)
# with a = 1 + 1/tau2 + 1/gamma2 after the analytic sigma2 reduction.
# ---------------------------------------------------------------------------

def sparse_group_2d(n_pts: int = 2401):
    u = np.linspace(-60.0, 10.0, n_pts)
    g = np.linspace(-60.0, 10.0, n_pts)
    tau2 = np.exp(u)[:, None]
    gamma2 = np.exp(g)[None, :]
    a = 1.0 + 1.0 / tau2 + 1.0 / gamma2
    s = 6.0 - 1.0 / a
    log_w = (0.5 * u[:, None] + 0.5 * g[None, :] - 0.5 * (tau2 + gamma2)
             - 0.5 * np.log(a) - (N_OBS / 2.0) * np.log(s / 2.0))
    w = np.exp(log_w - log_w.max())

    def integ(f):
        return simpson(simpson(f, x=g, axis=1), x=u)

    z = integ(w)
    e_sigma2 = integ(w * (s / 2.0) / 2.0) / z
    e_beta = integ(w * (1.0 / a)) / z
    return e_sigma2, e_beta, weighted_variance(np.log(s / 2.0), w, integ)


def sparse_group_3d(n_lat: int = 481, n_v: int = 481):
    # full grid including sigma2, as a convergence cross-check
    u = np.linspace(-45.0, 8.0, n_lat)
    g = np.linspace(-45.0, 8.0, n_lat)
    v = np.linspace(-12.0, 40.0, n_v)
    tau2 = np.exp(u)[:, None, None]
    gamma2 = np.exp(g)[None, :, None]
    sigma2 = np.exp(v)[None, None, :]
    a = 1.0 + 1.0 / tau2 + 1.0 / gamma2
    s = 6.0 - 1.0 / a
    log_w = (0.5 * u[:, None, None] + 0.5 * g[None, :, None]
             - 0.5 * (tau2 + gamma2) - 0.5 * np.log(a)
             - (N_OBS / 2.0) * v[None, None, :] - s / (2.0 * sigma2))
    w = np.exp(log_w - log_w.max())

    def integ(f):
        return simpson(simpson(simpson(f, x=v, axis=2), x=g, axis=1), x=u)

    z = integ(w)
    return integ(w * sigma2) / z, integ(w * (1.0 / a)) / z


# ---------------------------------------------------------------------------
# instance 3: fused lasso, p = 2, X = three stacked identities,
# Y = (1, 2, 1, 2, 1, 3); lambda1 = lambda2 = 1. X'X = 3 I, b = X'Y = (3, 7),
# Y'Y = 20, and the least-squares residual is 2/3 > 0 so S stays away from 0.
# Over (tau2_1, tau2_2, omega2), after the analytic sigma2 reduction:
#   prod(scales)^(-1/2) exp(-sum(scales)/2) |A|^(-1/2) (S/2)^(-n/2)
# With A = [[d1 + c, -c], [-c, d2 + c]] for d_i = 3 + 1/tau2_i, c = 1/omega2,
# the determinant is expanded as d1 d2 + c (d1 + d2), which is free of the
# catastrophic cancellation the raw a11 a22 - a12^2 form suffers for tiny
# scales; the posterior mean solve is expanded the same way.
# ---------------------------------------------------------------------------

def fused_3d(n_pts: int = 301):
    u1 = np.linspace(-45.0, 8.0, n_pts)
    u2 = np.linspace(-45.0, 8.0, n_pts)
    r = np.linspace(-45.0, 8.0, n_pts)
    d1 = 3.0 + 1.0 / np.exp(u1)[:, None, None]
    d2 = 3.0 + 1.0 / np.exp(u2)[None, :, None]
    c = 1.0 / np.exp(r)[None, None, :]
    det = d1 * d2 + c * (d1 + d2)
    m1 = (3.0 * d2 + 10.0 * c) / det
    m2 = (7.0 * d1 + 10.0 * c) / det
    s = 20.0 - (3.0 * m1 + 7.0 * m2)
    log_w = (0.5 * (u1[:, None, None] + u2[None, :, None] + r[None, None, :])
             - 0.5 * (np.exp(u1)[:, None, None] + np.exp(u2)[None, :, None]
                      + np.exp(r)[None, None, :])
             - 0.5 * np.log(det) - (N_OBS / 2.0) * np.log(s / 2.0))
    w = np.exp(log_w - log_w.max())

    def integ(f):
        return simpson(simpson(simpson(f, x=r, axis=2), x=u2, axis=1), x=u1)

    z = integ(w)
    e_sigma2 = integ(w * (s / 2.0) / 2.0) / z
    var_log_scale = weighted_variance(np.log(s / 2.0), w, integ)
    return e_sigma2, integ(w * m1) / z, integ(w * m2) / z, var_log_scale


# ---------------------------------------------------------------------------
# lag-one autocorrelation of log sigma2
#
# Both kernels draw sigma2 from an inverse gamma whose shape does not depend
# on the state: a2 = n/2 + alpha given the scales (2bg), a3 = (n + p)/2 +
# alpha given beta and the scales (3bg). The pair (sigma2 now, what the next
# sigma2 draw conditions on) is distributed as the posterior, so the lag-one
# autocovariance of log sigma2 is the variance of its conditional mean (Liu,
# Wong & Kong 1994, Biometrika 81(1)) and
#   rho1 = 1 - psi'(a) / V,   V = Var(log sigma2) = psi'(a2) + Var(log(S/2)),
# the last variance over the posterior of the scales (alpha = xi = 0 here).
# ---------------------------------------------------------------------------

def weighted_variance(values, w, integ):
    """Variance of `values` under the weights `w`, as an integral of squares."""
    z = integ(w)
    mean = integ(w * values) / z
    return integ(w * (values - mean) ** 2) / z


def lag_one(var_log_scale: float, p: int):
    """V and rho1(log sigma2) for 2bg and 3bg on an instance with p coefficients."""
    trigamma_2bg = polygamma(1, N_OBS / 2.0)
    trigamma_3bg = polygamma(1, (N_OBS + p) / 2.0)
    v = trigamma_2bg + var_log_scale
    return v, 1.0 - trigamma_2bg / v, 1.0 - trigamma_3bg / v


# ---------------------------------------------------------------------------
# distribution and diagnostics oracles
# ---------------------------------------------------------------------------

def inverse_gamma_median(shape: float, scale: float) -> float:
    # median of scale / Gamma(shape, 1)
    return scale / gammaincinv(shape, 0.5)


def ar1_iact_batch_means(phi: float, n: int = 2_000_000, batch: int = 2_000,
                         seed: int = 123) -> float:
    # independent check of IACT = (1 + phi)/(1 - phi) via batch means
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / np.sqrt(1 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + eps[i]
    nb = n // batch
    means = x[:nb * batch].reshape(nb, batch).mean(axis=1)
    return batch * means.var(ddof=1) / x.var(ddof=1)


def main() -> None:
    var_log_scale = {}
    print("== group lasso p=1 (n=6, X=e1, Y=1, lambda=1, alpha=xi=0) ==")
    for pts in (801, 1601):
        es, eb, var_log_sigma2 = group_lasso_2d(pts, pts)
        print(f"  2d grid {pts}: E[sigma2]={es:.10f} E[beta]={eb:.10f} "
              f"Var[log sigma2]={var_log_sigma2:.10f}")
    es, eb, var_log_scale["group"] = group_lasso_1d()
    print(f"  1d cross-check: E[sigma2]={es:.10f} E[beta]={eb:.10f}")

    print("== sparse group lasso p=1 (same data, lambda1=lambda2=1) ==")
    for pts in (1201, 2401):
        es, eb, var_log_scale["sparse"] = sparse_group_2d(pts)
        print(f"  2d grid {pts}: E[sigma2]={es:.10f} E[beta]={eb:.10f} "
              f"Var[log(S/2)]={var_log_scale['sparse']:.10f}")
    es, eb = sparse_group_3d()
    print(f"  3d cross-check: E[sigma2]={es:.10f} E[beta]={eb:.10f}")

    print("== fused lasso p=2 (n=6, stacked I, Y=(1,2,...), lambdas=1) ==")
    for pts in (201, 301):
        es, eb1, eb2, var_log_scale["fused"] = fused_3d(pts)
        print(f"  3d grid {pts}: E[sigma2]={es:.10f} E[beta]=({eb1:.10f}, {eb2:.10f}) "
              f"Var[log(S/2)]={var_log_scale['fused']:.10f}")

    print("== lag-one autocorrelation of log sigma2, 1 - psi'(a)/V (finest grids) ==")
    for name, p in (("group", 1), ("sparse", 1), ("fused", 2)):
        v, rho_2bg, rho_3bg = lag_one(var_log_scale[name], p)
        print(f"  {name}: V={v:.10f} rho1 2bg={rho_2bg:.10f} 3bg={rho_3bg:.10f}")

    print("== misc ==")
    print(f"  inverse-gamma(2, 2) median: {inverse_gamma_median(2.0, 2.0):.10f}")
    for phi in (0.5, 0.9):
        analytic = (1 + phi) / (1 - phi)
        bm = ar1_iact_batch_means(phi)
        print(f"  AR(1) phi={phi}: analytic IACT={analytic:.4f}, batch means={bm:.4f}")


if __name__ == "__main__":
    main()
