"""Exception types raised by the library."""


class HardyDualError(Exception):
    """Base class for all library errors."""


class SzegoViolation(HardyDualError):
    """Symbol modulus reaches or exceeds 1 where a strict contraction is required."""


class NotPositiveDefinite(HardyDualError):
    """A Gram matrix is unusable: it has no Cholesky factorization, or a
    kernel norm solved from it came out nonpositive.

    Usually means the symbol modulus is too close to 1 for the chosen
    truncation; scale the symbol (rho < 1) or refine the grid.
    """


class GridMismatch(HardyDualError):
    """Arrays sampled on different (or wrong-sized) circle grids."""


class DuplicatePoint(HardyDualError):
    """Two mass points lie at a pseudo-hyperbolic separation rho below
    TOL_BLASCHKE; for two masses |B'(zeta_k)| = rho / (1 - |zeta_k|^2) >= rho."""


class RejectBoundary(HardyDualError):
    """Point evaluation requested on or outside the unit circle."""


class ConfigError(HardyDualError):
    """Experiment configuration failed validation."""
