"""Exception types, and the finite-value and [0, 1] gates, shared across the
package."""

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


def require_fraction(name, values):
    """Raise StepFailure unless ``values`` lie in [0, 1] up to 1e-10.

    The bounds are tested on the minimum and maximum, in a form that NaN
    fails (NaN compares False against any bound) and that rejects +-inf;
    only a failing field is searched for a non-finite cell to name.
    """
    lo, hi = values.min(), values.max()
    if not (lo >= -1e-10 and hi <= 1.0 + 1e-10):
        require_finite(name, values)
        raise StepFailure(f"{name} left [0, 1]: min {lo:.3e}, max {hi:.3e}")
