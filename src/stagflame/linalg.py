"""Tridiagonal solves shared by the flow and chemistry steps.

Every linear system of the scheme is tridiagonal: the implicit transport of
a cell scalar, the momentum prediction, the Newton step of the correction
solve and the upwind mass balance.  ``solve_banded`` keeps the call of
``scipy.linalg.solve_banded`` for the (1, 1) band and goes straight to
LAPACK ``gtsv``, the routine scipy calls for that band, without scipy's
batch wrapper and input conversion; its results are bitwise the same.  It
also takes the (0, 0) band, a diagonal, which it solves with one division:
an explicit chemistry step's fuel balance and, away from the flame front,
its indicator balance couple no two cells.
``upwind_band`` builds the one implicit upwind operator of the scheme, which
the mass balance and every implicit scalar balance share.

``dgtsv`` comes from scipy's f2py extension ``scipy.linalg._flapack``,
loaded from its file under that name.  Importing it the usual way would
first run the package init of ``scipy`` and ``scipy.linalg``, which costs a
cold start more than numpy does, for this one function.  CPython keeps one
copy of a single-phase extension per name and file, so ``dgtsv`` is the
same object as ``scipy.linalg.lapack.dgtsv`` whichever is imported first.
"""

import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location

import numpy as np

FLAPACK = "scipy.linalg._flapack"


def load_flapack(scipy_dir):
    """The extension ``scipy.linalg._flapack`` of the scipy at ``scipy_dir``.

    Neither ``scipy`` nor ``scipy.linalg`` is imported.  Raises
    ``ImportError`` when ``scipy_dir/linalg`` holds no such extension.
    """
    linalg_dir = os.path.join(scipy_dir, "linalg")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(linalg_dir, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no LAPACK extension _flapack in {linalg_dir} "
                          f"(scipy found at {scipy_dir})")
    loader = ExtensionFileLoader(FLAPACK, path)
    module = module_from_spec(spec_from_file_location(FLAPACK, path,
                                                      loader=loader))
    loader.exec_module(module)
    return module


_scipy = find_spec("scipy")
if _scipy is None:
    raise ImportError("stagflame needs scipy for LAPACK gtsv; none is installed")
dgtsv = load_flapack(_scipy.submodule_search_locations[0]).dgtsv


def solve_banded(l_and_u, ab, b, overwrite_ab=False, overwrite_b=False):
    """Solve the tridiagonal or diagonal system in band storage ``ab``.

    For the (1, 1) band, ``ab[0, 1:]`` is the upper diagonal, ``ab[1]`` the
    diagonal and ``ab[2, :-1]`` the lower diagonal; for the (0, 0) band
    ``ab`` has shape (1, n) and holds the diagonal alone.  This is the
    storage of ``scipy.linalg.solve_banded``, whose argument order and
    errors this mirrors: ``LinAlgError`` for a singular matrix (for the
    diagonal, a zero entry), ``ValueError`` for any other band.  The input
    is never scanned for NaN and inf: a non-finite input gives a non-finite
    solution.  The diagonal solve is ``b / ab[0]``, bitwise what ``gtsv``
    gives for that diagonal with zero off-diagonals; it never writes
    ``ab`` and writes ``b`` only under ``overwrite_b``.
    """
    band = tuple(l_and_u)
    if band == (0, 0):
        diag = ab[0]
        if not diag.all():
            raise np.linalg.LinAlgError("singular matrix")
        # b.T: one right hand side per column of a 2-D b, as in scipy
        return np.divide(b.T, diag, out=b.T if overwrite_b else None).T
    if band != (1, 1):
        raise ValueError(
            f"only the (1, 1) and (0, 0) bands are supported, got {l_and_u!r}")
    x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b, overwrite_ab,
                    overwrite_ab, overwrite_ab, overwrite_b)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def upwind_band(diag0, c):
    """Band storage of y -> diag0 y + div(c y_upwind), for ``solve_banded``.

    ``diag0`` holds the n cell coefficients and ``c`` the n - 1 interior
    face coefficients (walls have none); face j takes y from cell j - 1
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
    positive.  It calls this module's ``solve_banded``, not the
    ``solve_banded`` attribute of ``hydro`` or ``chemistry``, so the solves
    counted there do not include it.
    """
    hdt = grid.cell_volumes / dt
    ab = upwind_band(hdt, u[1:-1])
    return solve_banded((1, 1), ab, hdt * rho_old, overwrite_ab=True,
                        overwrite_b=True)
