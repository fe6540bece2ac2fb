"""Exception types, and the finite-value gate, shared across the package."""

import numpy as np


class ConfigError(Exception):
    """Raised for malformed or inconsistent run configuration."""


class StepFailure(Exception):
    """Raised when a time step violates a hard solution gate or fails to solve."""


class OracleError(Exception):
    """Raised when the exact-solution machinery cannot certify its output."""


def require_finite(name, values):
    """Raise StepFailure naming ``name`` and the first non-finite cell."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise StepFailure(f"{name} is not finite in cell {i} ({values[i]})")
