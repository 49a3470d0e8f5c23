"""Gibbs samplers for Bayesian shrinkage regression models.

Two-block and three-block Gibbs kernels for the Bayesian group lasso,
sparse group lasso, and fused lasso, plus mixing diagnostics, synthetic
data generators, and a benchmarking CLI.
"""
from ._linalg import factorization_count
from .diagnostics import (
    DiagnosticsReport,
    Summary,
    autocorr,
    diagnose,
    ess_per_second,
    ess_univariate,
    summarize,
)
from .errors import (
    BlockGibbsError,
    DimensionMismatchError,
    FactorizationError,
    SamplerError,
)
from .model_core import (
    ChainState,
    Dataset,
    GroupStructure,
    ModelKind,
    ModelSpec,
)
from .rng_dist import (
    RngStream,
    sample_inverse_gamma,
    sample_inverse_gaussian,
    sample_inverse_gaussian_vector,
    sample_student_t,
)
from .samplers import (
    ChainOutput,
    KernelKind,
    RunConfig,
    initial_chain_state,
    map_jobs,
    run_chain,
    sample_mvn_precision,
)
from .simgen import (
    Scenario,
    ScenarioSpec,
    SimulatedDataset,
    standardize_columns,
)

__version__ = "0.1.0"

# the name of the kernel implementation; the kernels are plain numpy
kernel_backend = "numpy"
