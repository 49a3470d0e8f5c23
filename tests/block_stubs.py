"""Stubs that read the block update off exactly, and its frozen-scale draws."""
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


def chain_block_update(spec, dataset, kernel):
    """The block update `draw(beta, prior_inv, gen)` a chain runs on this model and data."""
    update = samplers._block_update(spec, dataset)
    return samplers._BLOCK_SAMPLERS[update](spec, dataset, KernelKind(kernel))


def block_draw(spec, dataset, kernel, beta, prior_inv, gen=None):
    """(new beta, sigma2) from the chain's own block update for this model and data.

    With the default `BasisGenerator()` these are the conditional mean of
    beta and the scale of the sigma2 conditional.
    """
    return chain_block_update(spec, dataset, kernel)(
        np.asarray(beta, dtype=np.float64), prior_inv,
        BasisGenerator() if gen is None else gen)


def frozen_scale_draws(spec, dataset, kernel, inv_scales, n_iter, seed):
    """(sigma2 draws, beta draws) of the chain's block update, latent scales held fixed.

    Loops the chain's own block update from beta = 0 on `RngStream(seed)`,
    with the prior precision built by the chain's `_prior_precision` from the
    reciprocal scales `inv_scales`, under the chain loop's floating-point
    state. Under the two-block kernel the draws are i.i.d. from the exact
    conditional posterior given those scales.
    """
    draw = chain_block_update(spec, dataset, kernel)
    prior_inv = samplers._prior_precision(spec, inv_scales)
    gen = RngStream(seed).generator
    sigma2_draws, beta_draws = np.empty(n_iter), np.empty((n_iter, dataset.p))
    beta = np.zeros(dataset.p)
    with np.errstate(**samplers._QUIET):
        for it in range(n_iter):
            beta, sigma2_draws[it] = draw(beta, prior_inv, gen)
            beta_draws[it] = beta
    return sigma2_draws, beta_draws
