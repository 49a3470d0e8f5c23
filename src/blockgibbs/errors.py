"""Exception types shared across the package."""
from __future__ import annotations


class BlockGibbsError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatchError(BlockGibbsError, ValueError):
    """A vector or matrix has the wrong length/shape for the requested operation."""

    def __init__(self, what: str, expected: int, actual: int):
        self.what = what
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected length {expected}, got {actual}")


class FactorizationError(BlockGibbsError, RuntimeError):
    """A matrix that must be symmetric positive definite failed to factor."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        msg = f"Cholesky factorization of {name} failed (matrix not positive definite)"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class SamplerError(BlockGibbsError, RuntimeError):
    """A Gibbs iteration failed; carries the iteration index for context."""

    def __init__(self, iteration: int, detail: str):
        self.iteration = iteration
        super().__init__(f"sampler failed at iteration {iteration}: {detail}")
