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
"""

from dataclasses import dataclass, field

import numpy as np

SCHEMES = ("upwind", "muscl", "antidiffusive")
_NEIGHBOR_POLICIES = ("opposite_cells", "upstream_cells")


@dataclass(frozen=True)
class LimiterParams:
    """Parameters of the face-value scheme.

    ``zeta_minus`` and ``zeta_plus`` (both in [0, 2]) open the two MUSCL
    admissibility intervals; ``neighbor_policy`` selects how the far upstream
    cell is found ("opposite_cells" mirrors through the upwind cell,
    "upstream_cells" additionally requires actual inflow through the upwind
    cell's other face).  ``s_max`` caps the anti-diffusion slope; 0 degrades
    to upwind.
    """

    scheme: str = "upwind"
    zeta_minus: float = 1.0
    zeta_plus: float = 1.0
    neighbor_policy: str = "opposite_cells"
    s_max: float = 2.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not 0.0 <= self.zeta_minus <= 2.0:
            raise ValueError("zeta_minus must lie in [0, 2]")
        if not 0.0 <= self.zeta_plus <= 2.0:
            raise ValueError("zeta_plus must lie in [0, 2]")
        if self.neighbor_policy not in _NEIGHBOR_POLICIES:
            raise ValueError(f"unknown neighbor policy {self.neighbor_policy!r}")
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
    F[1:n] = uj * np.where(uj >= 0.0, rho[:-1], rho[1:])
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
    F = np.asarray(F)
    through = np.abs(F[:-1]) + np.abs(F[1:])
    return float((dt * through / (np.asarray(rho_next) * grid.cell_volumes)).max())


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
    upstream cell is the upwind one where none lies beyond it (or, for MUSCL
    under "upstream_cells", none feeds it).  ``zeta`` is the anti-diffusive
    slope per face, 0 at walls and on zero-flux faces.
    """

    params: LimiterParams
    cells: np.ndarray = field(repr=False)
    zeta: np.ndarray = field(default=None, repr=False)


def face_stencil(F, params, rho_next, dt, grid):
    """Build the step's ``FaceStencil`` from its mass fluxes ``F``.

    ``rho_next``, ``dt`` and ``grid`` give the upwind-cell masses the
    anti-diffusive slope is measured against; the other schemes ignore them.
    """
    F = np.asarray(F)
    n = F.shape[0] - 1
    pos = F[1:n] >= 0.0
    j = np.arange(1, n)
    cells = np.empty((3, n + 1), dtype=np.intp)
    cells[:, 0] = 0
    cells[:, n] = n - 1
    up, dn, far = cells[:, 1:n]
    np.subtract(j, pos, out=up)  # j - 1 where F_j >= 0, else j
    np.subtract(2 * j - 1, up, out=dn)  # the face's other cell
    np.subtract(2 * up, dn, out=far)  # one beyond the upwind cell
    # no cell beyond a wall: the far upstream cell is the upwind one
    far[0] = max(far[0], 0)
    far[-1] = min(far[-1], n - 1)
    if params.scheme == "muscl" and params.neighbor_policy == "upstream_cells":
        # the far upstream cell counts only if it feeds the upwind cell
        inflow = np.where(pos, F[:-2] >= 0.0, F[2:] < 0.0)
        np.copyto(far, up, where=~inflow)
    if params.scheme != "antidiffusive":
        return FaceStencil(params, cells)
    abs_F = np.abs(F)
    vol = (np.asarray(rho_next) * grid.cell_volumes)[up]
    nu = dt * abs_F[1:n] / vol
    # the flux through the upwind cell's other face (cell k has faces k, k+1)
    nu_other = dt * abs_F[2 * up + 1 - j] / vol
    zeta = np.zeros(n + 1)
    with np.errstate(over="ignore"):
        np.divide(1.0 - nu_other, nu, out=zeta[1:n], where=nu > 0.0)
    return FaceStencil(params, cells, np.clip(zeta, 0.0, params.s_max, out=zeta))


def face_values(y, stencil):
    """Face values of the cell scalar ``y`` under the step's ``stencil``.

    Upwind takes the upwind cell.  MUSCL clips the centred value into two
    intervals at the upwind value, opened by ``zeta_plus`` towards the
    downwind cell and by ``zeta_minus`` away from the far upstream one; the
    anti-diffusive scheme clips the downwind value between the upwind value
    and its extrapolation by ``zeta`` away from the far upstream cell.
    ``tests/test_transport.py`` checks every face against per-face
    reference routines.
    """
    y = np.asarray(y)
    params = stencil.params
    if params.scheme == "upwind":
        return y[stencil.cells[0]]
    y_up, y_dn, y_m = y[stencil.cells]
    if params.scheme == "muscl":
        e1 = y_up + 0.5 * params.zeta_plus * (y_dn - y_up)
        e2 = y_up + 0.5 * params.zeta_minus * (y_up - y_m)
        lo = np.maximum(np.minimum(y_up, e1), np.minimum(y_up, e2))
        hi = np.minimum(np.maximum(y_up, e1), np.maximum(y_up, e2))
        return np.minimum(np.maximum(0.5 * (y_up + y_dn), lo), hi)
    far = y_up + stencil.zeta * (y_up - y_m)
    return np.minimum(np.maximum(y_dn, np.minimum(far, y_up)),
                      np.maximum(far, y_up))
