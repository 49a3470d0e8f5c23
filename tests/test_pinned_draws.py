"""Pinned draws: blake2b digests of whole chains, fixed once and kept.

Every model runs under both kernels on the tiny acceptance instances
(latent vectors of length 1 or 2, the short-vector transform path) and on
an identity-design instance with nine groups and ten coefficients (every
latent vector longer than eight, the vectorized transform path). The group
and sparse group models also run on a wide instance with five rows and the
same ten coefficients, where p > n selects the n-space block update. A
change to the sampler that alters any stored sigma2 or beta draw, even in
the last bit, fails here.

The designs are stacked or side-by-side identity blocks or single unit
columns, so the gram matrix, the n-space matrix I + X D X^T (diagonal,
each entry one plus a sum of two squares), the Cholesky factor and every
matrix-vector product involve no accumulated BLAS rounding; the digests still assume IEEE double arithmetic
as numpy and OpenBLAS perform it on x86-64, and the dense ones also the
rounding of LAPACK's QR factorization of [X y]. Regenerate them
only for a deliberate change of the draw-order contract, or of how a draw
is computed once it is shown that only rounding moved:

    PYTHONPATH=src python tests/test_pinned_draws.py
"""
import hashlib

import numpy as np
import pytest

from blockgibbs import (
    Dataset,
    GroupStructure,
    KernelKind,
    ModelSpec,
    RunConfig,
    run_chain,
)
from test_acceptance import tiny_fused_instance, tiny_group_instance

CONFIG = RunConfig(n_iter=300, burn_in=20, seed=2718, store_beta=True)


def tiny_fused():
    return tiny_fused_instance(), None


def nine_groups():
    a = 0.5 * np.arange(1.0, 11.0)
    b = a + np.tile([0.25, -0.25], 5)
    x = np.vstack([np.eye(10)] * 2)
    return Dataset(y=np.concatenate([a, b]), x=x), GroupStructure(np.array([1] * 8 + [2]))


def wide_pairs():
    # two identity blocks side by side: beta_j and beta_{j+5} share row j
    x = np.hstack([np.eye(5)] * 2)
    y = np.array([1.0, -0.5, 2.0, 0.25, -1.5])
    return Dataset(y=y, x=x), GroupStructure(np.array([1] * 8 + [2]))


INSTANCES = {"tiny": (tiny_group_instance, tiny_fused),
             "nine_groups": (nine_groups, nine_groups),
             "wide": (wide_pairs, None)}


def _spec(model, groups):
    if model == "group":
        return ModelSpec.group_lasso(1.0, groups)
    if model == "sparse":
        return ModelSpec.sparse_group_lasso(1.0, 1.0, groups)
    return ModelSpec.fused_lasso(1.0, 1.0)


def chain_digest(instance: str, model: str, kernel: str) -> str:
    grouped, fused = INSTANCES[instance]
    dataset, groups = (fused if model == "fused" else grouped)()
    out = run_chain(KernelKind(kernel), _spec(model, groups), dataset, CONFIG)
    h = hashlib.blake2b(digest_size=16)
    h.update(out.sigma2_draws.tobytes())
    h.update(out.beta_draws.tobytes())
    return h.hexdigest()


# the dense digests were generated when the p + 1 rows of R, the triangular
# factor of [X y], came to stand in for (X, y) whenever n > p, and the beta
# draw became L^-T (u + sigma z) for u = L^-1 X^T y; only rounding moved
# (at most 2.2e-11 relative in any stored draw)
PINNED = {
    ("tiny", "group", "2bg"): "3135251428b2a143db8cc475022fb1e6",
    ("tiny", "group", "3bg"): "e0a8d840b7f0622450bc4a6314ac68b9",
    ("tiny", "sparse", "2bg"): "b30f799125670774c7a88cdc155e03c2",
    ("tiny", "sparse", "3bg"): "07e90769ec349d571b533e85ad7cf294",
    ("tiny", "fused", "2bg"): "68730d013fc6c54cc760b087a7ccd308",
    ("tiny", "fused", "3bg"): "e16faea775371c557b71b868c2e77ba9",
    ("nine_groups", "group", "2bg"): "8e826eda2111f59c6064e54b5e931aa6",
    ("nine_groups", "group", "3bg"): "1a296d6ea1679edb4a17831ab5918fa5",
    ("nine_groups", "sparse", "2bg"): "c09a6254633630a9b12d8540ef0baa54",
    ("nine_groups", "sparse", "3bg"): "ba7005ec8c58821007f087734a861278",
    ("nine_groups", "fused", "2bg"): "fd31ac40ce9304811bf0d7da90053bc5",
    ("nine_groups", "fused", "3bg"): "afe8177feae54a44e983c3dd3a57b5c2",
    # generated with the n-space block update (p > n) when it went in
    ("wide", "group", "2bg"): "d6cb15bfa4199a5f95c34f9745c030a1",
    ("wide", "group", "3bg"): "384ac39028fb0655dab94cb624d2023d",
    ("wide", "sparse", "2bg"): "087f91cd787ce56d5f30dbd149645921",
    ("wide", "sparse", "3bg"): "14282719db5645366a501ed053f43a34",
}


@pytest.mark.parametrize("case", sorted(PINNED), ids="-".join)
def test_draws_match_pinned_digest(case):
    assert chain_digest(*case) == PINNED[case]


if __name__ == "__main__":
    for case in sorted(PINNED, key=list(PINNED).index):
        print(f"    {case!r}: {chain_digest(*case)!r},")
