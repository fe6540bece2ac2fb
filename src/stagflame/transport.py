"""Face interpolation and mass-flux machinery on the staggered grid.

Three face-value schemes are provided for scalar convection: plain upwind, a
MUSCL limiter that clips a centered tentative value into two admissibility
intervals, and an anti-diffusive scheme that pushes the face value as close
to the downwind cell value as the admissibility interval allows.  All three
take the already-computed mass fluxes, so the same machinery serves explicit
and implicit steps.
"""

from dataclasses import dataclass

import numpy as np

_SCHEMES = ("upwind", "muscl", "antidiffusive")
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
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {_SCHEMES}")
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

    The boundary faces carry zero flux (impermeable walls); interior faces
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


def cfl_number(F, rho_next, dt, grid):
    """Material CFL number max_K dt (|F_left| + |F_right|) / (rho_K |K|)."""
    F = np.asarray(F)
    through = np.abs(F[:-1]) + np.abs(F[1:])
    return float(np.max(dt * through / (np.asarray(rho_next) * grid.cell_volumes)))


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


def _upwind_stencil(y, pos):
    """Upwind, downwind and far-upstream cell values of the interior faces.

    ``pos`` marks the faces whose flux runs left to right.  The far upstream
    cell lies one cell beyond the upwind one; at a wall there is none, and
    padding ``y`` with its end values makes it the upwind cell itself.
    """
    y_left = y[:-1]
    y_right = y[1:]
    padded = np.concatenate((y[:1], y, y[-1:]))
    y_up = np.where(pos, y_left, y_right)
    y_dn = np.where(pos, y_right, y_left)
    y_m = np.where(pos, padded[:-3], padded[3:])
    return y_up, y_dn, y_m


def muscl_face_values(y, F, params):
    """MUSCL face values: the centred value clipped into two intervals at
    the upwind value, one opened towards the downwind cell by ``zeta_plus``,
    one away from the far upstream cell by ``zeta_minus`` (closed when that
    cell is a wall or fails the neighbour policy).  ``tests/test_transport.py``
    checks them face by face against a per-face reference routine."""
    y = np.asarray(y)
    F = np.asarray(F)
    n = y.shape[0]
    vals = np.empty(n + 1)
    vals[0] = y[0]
    vals[-1] = y[-1]
    pos = F[1:n] >= 0.0
    y_up, y_dn, y_m = _upwind_stencil(y, pos)
    if params.neighbor_policy == "upstream_cells":
        # the far upstream cell counts only if it feeds the upwind cell; the
        # wall faces carry no flux, and there y_m is the upwind value anyway
        inflow = np.where(pos, F[:-2] >= 0.0, F[2:] < 0.0)
        y_m = np.where(inflow, y_m, y_up)
    tentative = 0.5 * (y[:-1] + y[1:])
    e1 = y_up + 0.5 * params.zeta_plus * (y_dn - y_up)
    e2 = y_up + 0.5 * params.zeta_minus * (y_up - y_m)
    lo = np.maximum(np.minimum(y_up, e1), np.minimum(y_up, e2))
    hi = np.minimum(np.maximum(y_up, e1), np.maximum(y_up, e2))
    vals[1:n] = np.minimum(np.maximum(tentative, lo), hi)
    return vals


def antidiffusive_face_values(y, F, rho_next, dt, grid, params):
    """Anti-diffusive face values: the downwind value clipped into an
    interval at the upwind value, opened by the Courant numbers through the
    upwind cell's two faces and capped by ``s_max``; zero flux is upwind.
    ``tests/test_transport.py`` checks them face by face against a per-face
    reference routine."""
    y = np.asarray(y)
    F = np.asarray(F)
    n = y.shape[0]
    vals = np.empty(n + 1)
    vals[0] = y[0]
    vals[-1] = y[-1]
    pos = F[1:n] >= 0.0
    y_up, y_dn, y_m = _upwind_stencil(y, pos)
    mass = np.asarray(rho_next) * grid.cell_volumes
    vol = np.where(pos, mass[:-1], mass[1:])
    abs_F = np.abs(F)
    nu = dt * abs_F[1:n] / vol
    # the flux through the upwind cell's other face
    nu_other = dt * np.where(pos, abs_F[:-2], abs_F[2:]) / vol
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        zeta = np.minimum(np.maximum((1.0 - nu_other) / nu, 0.0), params.s_max)
    far = y_up + zeta * (y_up - y_m)
    lo = np.minimum(far, y_up)
    hi = np.maximum(far, y_up)
    clipped = np.minimum(np.maximum(y_dn, lo), hi)
    vals[1:n] = np.where(nu > 0.0, clipped, y_up)
    return vals


def face_values(y, F, params, rho_next=None, dt=None, grid=None):
    """Dispatch to the face-value scheme selected by ``params``."""
    if params.scheme == "upwind":
        return upwind_face_values(y, F)
    if params.scheme == "muscl":
        return muscl_face_values(y, F, params)
    if rho_next is None or dt is None or grid is None:
        raise TypeError("antidiffusive face values need rho_next, dt and grid")
    return antidiffusive_face_values(y, F, rho_next, dt, grid, params)

