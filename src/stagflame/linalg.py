"""Tridiagonal solves shared by the flow and chemistry steps.

Every linear system of the scheme is tridiagonal: the implicit transport of
a cell scalar, the momentum prediction, the Newton step of the correction
solve and the upwind mass balance.  ``solve_banded`` keeps the call of
``scipy.linalg.solve_banded`` for the (1, 1) band and goes straight to
LAPACK ``gtsv``, the routine scipy calls for that band, without scipy's
batch wrapper and input conversion; its results are bitwise the same.
``upwind_band`` builds the one implicit upwind operator of the scheme, which
the mass balance and every implicit scalar balance share.
"""

import numpy as np
from scipy.linalg.lapack import dgtsv


def solve_banded(l_and_u, ab, b, overwrite_ab=False, overwrite_b=False,
                 check_finite=True):
    """Solve the tridiagonal system in (1, 1) band storage ``ab``.

    ``ab[0, 1:]`` is the upper diagonal, ``ab[1]`` the diagonal and
    ``ab[2, :-1]`` the lower diagonal, as for ``scipy.linalg.solve_banded``,
    whose arguments and errors this mirrors: ``LinAlgError`` for a singular
    matrix, ``ValueError`` for non-finite input when ``check_finite`` is set
    and for any band other than (1, 1).
    """
    if tuple(l_and_u) != (1, 1):
        raise ValueError(f"only the (1, 1) band is supported, got {l_and_u!r}")
    if check_finite and not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b, overwrite_ab,
                    overwrite_ab, overwrite_ab, overwrite_b)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def upwind_band(diag0, c):
    """Band storage of y -> diag0 y + div(c y_upwind), for ``solve_banded``.

    ``diag0`` holds the n cell coefficients and ``c`` the n - 1 interior
    face coefficients (walls carry none); face j takes y from cell j - 1
    when c_j >= 0 and from cell j otherwise.  With a positive ``diag0`` and
    ``c`` a velocity or a mass flux this is an M-matrix, which is what keeps
    densities positive and transported fractions in [0, 1].
    """
    pos = c >= 0.0
    ab = np.empty((3, diag0.shape[0]))
    ab[0, 0] = 0.0
    ab[0, 1:] = np.where(pos, 0.0, c)
    diag = ab[1]
    diag[:] = diag0
    diag[:-1] += np.where(pos, c, 0.0)
    diag[1:] -= ab[0, 1:]
    ab[2, :-1] = np.where(pos, -c, 0.0)
    ab[2, -1] = 0.0
    return ab


def upwind_mass_solve(grid, rho_old, u, dt):
    """Density after one implicit upwind mass step with face velocities u.

    Solves |K|/dt (rho - rho_old) + F_right - F_left = 0 with the upwind
    fluxes F_j = u_j rho_upwind (zero at the walls); the matrix is
    ``upwind_band`` with the face velocities, so the density stays
    positive.  ``gtsv`` is called directly, so these solves are not counted
    with the banded solves of the step.
    """
    hdt = grid.cell_volumes / dt
    ab = upwind_band(hdt, u[1:-1])
    return dgtsv(ab[2, :-1], ab[1], ab[0, 1:], hdt * rho_old,
                 overwrite_dl=1, overwrite_d=1, overwrite_du=1)[3]
