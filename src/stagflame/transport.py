"""Face interpolation and mass-flux machinery on the staggered grid, and the
arrays a time level builds from its fields: dual density, pressure gradient,
material CFL.

Three face-value schemes are provided for scalar convection: plain upwind, a
MUSCL limiter that clips a centred tentative value into two admissibility
intervals, and an anti-diffusive scheme that pushes the face value as close
to the downwind cell value as the admissibility interval allows.  A scheme
comes in two parts: ``face_stencil`` builds, once per step from the mass
fluxes, what does not depend on the scalar (upwind, downwind and far-upstream
cells, the anti-diffusive slope), and ``face_values`` applies it to a scalar.
Both work in their own temporaries (``out=``, augmented assignment) and
never write into their arguments; a ``FaceStencil`` is shared by every
scalar of a step and is not written after it is built.
"""

from dataclasses import dataclass, field

import numpy as np

SCHEMES = ("upwind", "muscl", "antidiffusive")


@dataclass(frozen=True)
class LimiterParams:
    """Parameters of the face-value scheme.

    ``zeta_minus`` and ``zeta_plus`` (both in [0, 2]) open the two MUSCL
    admissibility intervals, the second one towards the far upstream cell:
    the upwind cell's other neighbour, mirrored through it from the downwind
    cell.  ``s_max`` caps the anti-diffusion slope; 0 degrades to upwind.
    """

    scheme: str = "upwind"
    zeta_minus: float = 1.0
    zeta_plus: float = 1.0
    s_max: float = 2.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not 0.0 <= self.zeta_minus <= 2.0:
            raise ValueError("zeta_minus must lie in [0, 2]")
        if not 0.0 <= self.zeta_plus <= 2.0:
            raise ValueError("zeta_plus must lie in [0, 2]")
        if self.s_max < 0.0:
            raise ValueError("s_max must be non-negative")


def primal_mass_flux(rho, u):
    """Upwind mass fluxes through the faces, F_j = u_j * rho_upwind.

    The boundary faces have zero flux (impermeable walls); interior faces
    take the density of the cell the flow comes from, with the left cell
    winning ties at exactly zero velocity.
    """
    rho = np.asarray(rho)
    u = np.asarray(u)
    n = rho.shape[0]
    F = np.zeros(n + 1)
    uj = u[1:n]
    np.multiply(uj, np.where(uj >= 0.0, rho[:-1], rho[1:]), out=F[1:n])
    return F


def dual_mass_flux(F):
    """Fluxes through the interfaces of the dual (face-centred) cells.

    The interface between the dual cells of faces j and j+1 sits at the
    centre of cell j; the flux through it is the average of the two primal
    fluxes of cell j.  With that choice every dual cell - including the
    half cells at the walls - satisfies the same mass balance as the primal
    cells, with the dual density taken as the volume-weighted average of the
    adjacent cell densities.
    """
    F = np.asarray(F)
    return 0.5 * (F[:-1] + F[1:])


def dual_density(grid, rho):
    """Density of the dual cells: arithmetic average inside, cell value at walls."""
    rho = np.asarray(rho)
    out = np.empty(grid.n_faces)
    out[1:-1] = 0.5 * (rho[:-1] + rho[1:])
    out[0] = rho[0]
    out[-1] = rho[-1]
    return out


def pressure_gradient(p, grid):
    """Face pressure gradient (p_K - p_L)/|D_sigma|; zero at the walls."""
    p = np.asarray(p)
    g = np.zeros(grid.n_faces)
    g[1:-1] = (p[1:] - p[:-1]) / grid.dual_volumes[1:-1]
    return g


def cfl_number(F, rho_next, dt, grid):
    """Material CFL number max_K dt (|F_left| + |F_right|) / (rho_K |K|)."""
    abs_F = np.abs(F)
    # dt (|F_left| + |F_right|) / (rho |K|)
    through = abs_F[:-1] + abs_F[1:]
    through *= dt
    through /= np.multiply(rho_next, grid.cell_volumes)
    return float(through.max())


# ---------------------------------------------------------------------------
# face-value schemes


def upwind_face_values(y, F):
    """Vectorised upwind face values; boundary faces take the adjacent cell."""
    y = np.asarray(y)
    F = np.asarray(F)
    n = y.shape[0]
    vals = np.empty(n + 1)
    vals[0] = y[0]
    vals[-1] = y[-1]
    vals[1:n] = np.where(F[1:n] >= 0.0, y[:-1], y[1:])
    return vals


@dataclass(frozen=True)
class FaceStencil:
    """The geometry of one step's face-value scheme, shared by every scalar.

    ``cells`` stacks the upwind, downwind and far-upstream cell of every
    face; a wall face has its adjacent cell in all three rows, and the far
    upstream cell is the upwind one where none lies beyond it; an upwind
    stencil holds the upwind row alone, the one its face values read.
    ``zeta`` is the anti-diffusive slope per face, 0 at walls and on
    zero-flux faces.
    """

    params: LimiterParams
    cells: np.ndarray = field(repr=False)
    zeta: np.ndarray = field(default=None, repr=False)


def face_stencil(F, params, rho_next, dt, grid):
    """Build the step's ``FaceStencil`` from its mass fluxes ``F``.

    Each face takes its column of ``grid.cells_right`` where F >= 0 and of
    ``grid.cells_left`` elsewhere, the upwind scheme only their first row.
    ``rho_next``, ``dt`` and the grid's cell volumes give the upwind-cell
    masses the anti-diffusive slope is measured against; the other schemes
    ignore them.
    """
    F = np.asarray(F)
    n = F.shape[0] - 1
    pos = F >= 0.0
    rows = 1 if params.scheme == "upwind" else 3
    cells = np.where(pos, grid.cells_right[:rows], grid.cells_left[:rows])
    if params.scheme != "antidiffusive":
        return FaceStencil(params, cells)
    abs_F = np.abs(F)
    vol = np.multiply(rho_next, grid.cell_volumes)[cells[0, 1:n]]
    # nu = dt |F_j| / vol
    nu = dt * abs_F[1:n]
    nu /= vol
    # the flux through the upwind cell's other face (cell k has faces k, k+1):
    # face j - 1 where F_j >= 0, else face j + 1
    nu_other = np.where(pos[1:n], abs_F[:-2], abs_F[2:])
    nu_other *= dt
    nu_other /= vol
    zeta = np.zeros(n + 1)
    with np.errstate(over="ignore"):
        # zeta = (1 - nu_other) / nu where nu > 0
        np.divide(np.subtract(1.0, nu_other, out=nu_other), nu,
                  out=zeta[1:n], where=nu > 0.0)
    # zeta clipped to [0, s_max]
    np.maximum(zeta, 0.0, out=zeta)
    return FaceStencil(params, cells,
                       np.minimum(zeta, params.s_max, out=zeta))


def face_values(y, stencil):
    """Face values of the cell scalar ``y`` under the step's ``stencil``.

    Upwind takes the upwind cell.  MUSCL clips the centred value into two
    intervals at the upwind value, opened by ``zeta_plus`` towards the
    downwind cell and by ``zeta_minus`` away from the far upstream one; the
    anti-diffusive scheme clips the downwind value between the upwind value
    and its extrapolation by ``zeta`` away from the far upstream cell.
    Each call returns a new array.  ``tests/test_transport.py`` checks every
    face against per-face reference routines.
    """
    y = np.asarray(y)
    params = stencil.params
    if params.scheme == "upwind":
        return y[stencil.cells[0]]
    y_up, y_dn, y_m = y[stencil.cells]
    if params.scheme == "muscl":
        # e1 = y_up + zeta_plus / 2 (y_dn - y_up)
        e1 = y_dn - y_up
        e1 *= 0.5 * params.zeta_plus
        e1 += y_up
        # e2 = y_up + zeta_minus / 2 (y_up - y_m)
        e2 = np.subtract(y_up, y_m, out=y_m)
        e2 *= 0.5 * params.zeta_minus
        e2 += y_up
        # lo = max(min(y_up, e1), min(y_up, e2))
        lo = np.minimum(y_up, e1)
        lo2 = np.minimum(y_up, e2)
        np.maximum(lo, lo2, out=lo)
        # hi = min(max(y_up, e1), max(y_up, e2))
        hi = np.minimum(np.maximum(y_up, e1, out=e1),
                        np.maximum(y_up, e2, out=e2), out=e1)
        # face = min(max((y_up + y_dn) / 2, lo), hi)
        centred = np.add(y_up, y_dn, out=lo2)
        centred *= 0.5
        np.maximum(centred, lo, out=centred)
        return np.minimum(centred, hi, out=centred)
    # far = y_up + zeta (y_up - y_m); face = min(max(y_dn, min(far, y_up)),
    # max(far, y_up))
    far = np.subtract(y_up, y_m, out=y_m)
    far *= stencil.zeta
    far += y_up
    lo = np.minimum(far, y_up)
    np.maximum(y_dn, lo, out=lo)
    return np.minimum(lo, np.maximum(far, y_up, out=far), out=lo)
