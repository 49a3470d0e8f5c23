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


# the dense digests were generated when both kernels' scales became the sum
# of squares ||R [v; -1]||^2 + v^T Q v, R the triangular factor of [X y]:
# the three-block ones at v = beta (in place of the residual
# ||y - X beta||^2 + beta^T Q beta, which rounds differently), the two-block
# ones at the mean v = m (in place of the difference y^T y - u^T u)
PINNED = {
    ("tiny", "group", "2bg"): "13f31104ba896dee2c534f88c9e3c67e",
    ("tiny", "group", "3bg"): "bb89df047fc706d13fe9d75702bd951e",
    ("tiny", "sparse", "2bg"): "d25766ffc9bf750a06e23fa68e0aa616",
    ("tiny", "sparse", "3bg"): "79b3ce28c1c1f175e8865f3125769367",
    ("tiny", "fused", "2bg"): "9deaacd56eef68874c68155b5899ad6c",
    ("tiny", "fused", "3bg"): "8bcc9c6a74861e2c07fe44de72312675",
    ("nine_groups", "group", "2bg"): "aa710f112099199b5a961f7fa05f0c1a",
    ("nine_groups", "group", "3bg"): "6f771009f2f7ed6aeddbd9b119edab78",
    ("nine_groups", "sparse", "2bg"): "503872d105a5287157b48138cf7c1368",
    ("nine_groups", "sparse", "3bg"): "ff00c823aa79bcf71d3a7e5bd0a02fba",
    ("nine_groups", "fused", "2bg"): "70c77b7a867b7611ffcc407481cd9e9c",
    ("nine_groups", "fused", "3bg"): "170650f91a923a624806e5e5a3ec439b",
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
