"""A stub random generator that reads the block update's affine maps off exactly."""
import numpy as np

from blockgibbs import KernelKind, samplers


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


def block_draw(spec, dataset, kernel, beta, prior_inv, gen=None):
    """(new beta, sigma2) from the chain's own block update for this model and data.

    With the default `BasisGenerator()` these are the conditional mean of
    beta and the scale of the sigma2 conditional.
    """
    update = samplers._block_update(spec, dataset)
    draw = samplers._BLOCK_SAMPLERS[update](spec, dataset, KernelKind(kernel))
    return draw(np.asarray(beta, dtype=np.float64), prior_inv,
                BasisGenerator() if gen is None else gen)
