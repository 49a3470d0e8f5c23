"""Stubs that read the block update off exactly, its frozen-scale draws, and
the chain's prior object with fixed scales."""
import numpy as np

from blockgibbs import KernelKind, RngStream, samplers


class BasisGenerator:
    """Stub generator: gamma draws 1 and the normals are zero or one unit vector.

    With it a block update returns sigma2 = its scale, and beta is the mean
    map (no `unit`) or the mean plus one column of the noise map (`unit = j`).
    The gamma shapes asked for are kept in `shapes`.
    """

    def __init__(self, unit=None):
        self.unit = unit
        self.shapes = []

    def gamma(self, shape):
        self.shapes.append(shape)
        return 1.0

    def standard_normal(self, size):
        z = np.zeros(size)
        if self.unit is not None:
            z[self.unit] = 1.0
        return z


def read_off_maps(draw, n_normals):
    """(mean, sigma2, B B^T) of a draw `draw(gen) -> (beta, sigma2)` that is
    affine in its `n_normals` standard normals, read off with BasisGenerator."""
    mean, sigma2 = draw(BasisGenerator())
    noise = np.column_stack([draw(BasisGenerator(j))[0] - mean for j in range(n_normals)])
    return mean, sigma2, noise @ noise.T


def fixed_prior(spec, *inv_scales):
    """The chain's prior object for `spec`, with Q set from fixed reciprocal scales.

    The scales come in the draw-order contract's order: for the group lasso
    1/tau_g^2; for the sparse group lasso 1/tau_g^2 and 1/gamma_j^2; for the
    fused lasso 1/tau_j^2 and 1/omega_j^2.
    """
    prior = samplers._chain_prior(spec)
    prior.set_scales(inv_scales)
    return prior


def to_dense(prior):
    """The prior precision Q that a prior object holds, as a dense p x p array."""
    q = np.diag(prior.diag)
    if prior.off is not None:
        idx = np.arange(prior.off.shape[0])
        q[idx, idx + 1] = prior.off
        q[idx + 1, idx] = prior.off
    return q


def chain_block_update(spec, dataset, kernel):
    """The block update `draw(beta, prior, gen)` a chain runs on this model and data."""
    update = samplers._block_update(spec, dataset)
    return samplers._BLOCK_SAMPLERS[update](spec, dataset, KernelKind(kernel))


def block_draw(spec, dataset, kernel, beta, inv_scales, gen=None):
    """(new beta, sigma2) from the chain's own block update for this model and data.

    The prior precision is the one the chain's prior object sets from the
    reciprocal scales `inv_scales`. With the default `BasisGenerator()` these
    are the conditional mean of beta and the scale of the sigma2 conditional.
    """
    return chain_block_update(spec, dataset, kernel)(
        np.asarray(beta, dtype=np.float64), fixed_prior(spec, *inv_scales),
        BasisGenerator() if gen is None else gen)


def frozen_scale_draws(spec, dataset, kernel, inv_scales, n_iter, seed):
    """(sigma2 draws, beta draws) of the chain's block update, latent scales held fixed.

    Loops the chain's own block update from beta = 0 on `RngStream(seed)`,
    with the prior precision set by the chain's prior object from the
    reciprocal scales `inv_scales`, under the chain loop's floating-point
    state. Under the two-block kernel the draws are i.i.d. from the exact
    conditional posterior given those scales.
    """
    draw = chain_block_update(spec, dataset, kernel)
    prior = fixed_prior(spec, *inv_scales)
    gen = RngStream(seed).generator
    sigma2_draws, beta_draws = np.empty(n_iter), np.empty((n_iter, dataset.p))
    beta = np.zeros(dataset.p)
    with np.errstate(**samplers._QUIET):
        for it in range(n_iter):
            beta, sigma2_draws[it] = draw(beta, prior, gen)
            beta_draws[it] = beta
    return sigma2_draws, beta_draws
