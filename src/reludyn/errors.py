"""Error types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, failed numerical checks and numerically unusable measurements
(NumericError, DegenerateBatchError) with 3, and I/O trouble with 4.
"""

from __future__ import annotations


class ConfigurationError(ValueError):
    """Bad shapes, widths, modes, grids, or config files."""


class PreconditionError(ValueError):
    """An operation was called on inputs that violate its contract."""


class DegenerateBatchError(ValueError):
    """Batch statistics are unusable (too few samples or zero spread)."""


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""
