"""Chemistry step: burnt-zone indicator, species transport, heat release.

The step runs between the two density levels already produced by the flow
solver, so every scalar balance uses the previous-step mass fluxes and is
conservative by construction.  The burnt-zone indicator G is transported
with the material flow and eats into the fresh gas at the turbulent flame
speed; the reaction term is closed by the indicator (it only burns where
G < 1/2) and is always treated implicitly, cell by cell, which keeps the
fuel fraction non-negative for any step size.

A step builds what its scalars share once (``_ScalarStep``): the cell
masses at both levels and either the implicit upwind band or the explicit
face stencil, which G, y_O, y_N and y_F apply through ``face_values``; z's
faces follow from those of y_F and y_O.  Every implicit system goes
through ``solve_banded``, imported from ``stagflame.linalg`` under scipy's
name and argument order: an implicit step makes four such solves (G, z, y_N,
y_F on copies of the (1, 1) band, to which G adds its flame term and y_F its
reaction term), an explicit step two, on a band holding only the cell
masses and those terms.  y_F's reaction term is cell-local, so its band is
the (0, 0) diagonal; G's flame term couples two cells only across a face
where the flame field is nonzero, so G's (1, 1) band spans the cells from
the first to the last such face (the flame brush), every other row is
``rhs / mass``, and with no such face the system is the (0, 0) diagonal.
Each row keeps its operations, so the results are bitwise those of ``gtsv``
on the full band.  The benchmark's span recorder counts and times the
solves and the face values by wrapping this module's ``solve_banded`` and
``face_values`` attributes, so the names must stay.

The step's kernels work in place: a call may overwrite the temporaries it
made itself (``out=``, augmented assignment), keeping the operations of
the formula its comment gives in their order, so that results stay bitwise
those of the plain expression.  Nothing writes into an array of a level,
of the step's ``_ScalarStep`` or ``FaceStencil`` (every scalar shares
them) or of a ``ChemResult``.

A ``ChemResult`` holds no face values: the energy audit rebuilds those
each species balance convected (``species_faces``), through this module's
``face_values``, so the span recorder counts them too.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StepFailure, require_fraction
from .linalg import solve_banded, upwind_band
from .thermo import y_O_from_z, z_from_fractions
from .transport import SCHEMES, FaceStencil, face_stencil, face_values

# The flame advection is off on faces where the indicator gradient is below
# this fraction of the indicator range per cell: round-off, not a front.
_GRAD_THRESHOLD = 1e-12


@dataclass(frozen=True)
class ChemStepConfig:
    """Parameters of the chemistry step.

    ``epsilon`` is the relaxation time of the reaction (positive).
    ``flame_speed_product`` is the constant rho_u * u_f appearing in the
    flame propagation term.  ``limiter`` is the convection scheme: None for
    implicit upwind transport (unconditionally stable), the name of one of
    ``transport.SCHEMES`` for explicit transport with its face values,
    nothing else; the flame term stays implicit either way.
    """

    epsilon: float
    flame_speed_product: float = 0.0
    limiter: str = None

    def __post_init__(self):
        if not (self.limiter is None or self.limiter in SCHEMES):
            raise ConfigError(f"limiter must be None or one of {SCHEMES}, "
                              f"got {self.limiter!r}")
        if not self.epsilon > 0.0:
            raise ConfigError("epsilon must be positive")
        if self.flame_speed_product < 0.0:
            raise ConfigError("flame_speed_product must be non-negative")


@dataclass
class ChemResult:
    """Output of one chemistry step: new scalars, the heat release
    actually applied and the ``limiter`` the step ran (None in implicit
    mode)."""

    G: np.ndarray
    z: np.ndarray
    y_F: np.ndarray
    y_O: np.ndarray
    y_N: np.ndarray
    y_P: np.ndarray
    omega_theta: np.ndarray
    limiter: str = None


def species_faces(state, chem):
    """The face values of z, y_F, y_O, y_N and y_P that the species
    balances of the chemistry step ``chem`` from ``state`` convected with
    ``state.flux`` (needed to audit the total-energy budget), rebuilt on
    the stencil of those fluxes and the step's limiter: an explicit step's
    ``_level_faces``, or the upwind values of the new z, y_N and y_F, with
    y_O's derived from them.  y_P's close the sum in either mode."""
    stencil = face_stencil(state.flux, chem.limiter or "upwind", state.rho,
                           state.dt, state.grid)
    if chem.limiter is not None:
        faces = _level_faces(state, stencil)
    else:
        z = face_values(chem.z, stencil)
        y_N = face_values(chem.y_N, stencil)
        y_F = face_values(chem.y_F, stencil)
        faces = {"z": z, "y_F": y_F,
                 "y_O": y_O_from_z(state.mixture, y_F, z), "y_N": y_N}
    return {**faces, "y_P": 1.0 - faces["y_F"] - faces["y_O"] - faces["y_N"]}


def _level_faces(state, stencil):
    """The faces of the level's y_O, y_N and y_F under ``stencil``, and z's
    from y_F's and y_O's: limiting y_O, not z, keeps y_O's maximum
    principle, and z's faces (and balance) are their linear combination."""
    y_O = face_values(state.y_O, stencil)
    y_N = face_values(state.y_N, stencil)
    y_F = face_values(state.y_F, stencil)
    return {"z": z_from_fractions(state.mixture, y_F, y_O), "y_F": y_F,
            "y_O": y_O, "y_N": y_N}


def flame_advection_field(G, flame_speed_product):
    """Per-face flame advection velocity rho_u u_f * sign(grad G).

    The sign of the gradient at a face is that of the centred difference
    of face-interpolated indicator values, which no mesh size changes;
    where that difference is flat (below twice ``_GRAD_THRESHOLD`` times
    the indicator range) the advection field is switched off, and it is
    always zero at the walls.
    """
    G = np.asarray(G)
    n = G.shape[0]
    G_hat = np.empty(n + 1)
    inner = np.add(G[:-1], G[1:], out=G_hat[1:n])
    inner *= 0.5  # (G_L + G_R) / 2
    G_hat[0] = G[0]
    G_hat[n] = G[-1]
    a = np.zeros(n + 1)
    dG = np.subtract(G_hat[2:], G_hat[:-2])  # 2 h grad G
    span = float(G.max() - G.min())
    cut = 2.0 * _GRAD_THRESHOLD * span
    # a = rho_u u_f sign(dG), 0 where |dG| < cut
    sign = np.sign(dG, out=a[1:n])
    sign[np.abs(dG, out=dG) < cut] = 0.0
    sign *= flame_speed_product
    return a


@dataclass(frozen=True)
class _ScalarStep:
    """What every scalar balance of one chemistry step shares: the cell
    masses |K| rho^{n-1} / dt and |K| rho^n / dt, and the band of
    mass y + div(F y) with upwind faces (implicit) or the face stencil of
    the step's fluxes (explicit)."""

    F: np.ndarray
    mass_prev: np.ndarray
    mass: np.ndarray
    transport: np.ndarray = None
    stencil: FaceStencil = None


def _scalar_step(state, config):
    hdt = state.grid.cell_volumes / state.dt
    F = state.flux
    mass = hdt * state.rho
    if config.limiter is not None:
        # the limited schemes' maximum principle needs the level's material
        # CFL at most 1, and dt stays fixed after setup
        if not state.cfl <= 1.0:
            raise StepFailure(
                f"material CFL {state.cfl:.4f} exceeds 1 in explicit-limited "
                f"mode (dt {state.dt:.6e}); the limited face values need "
                f"CFL <= 1")
        stencil = face_stencil(F, config.limiter, state.rho, state.dt,
                               state.grid)
        return _ScalarStep(F, hdt * state.rho_prev, mass, stencil=stencil)
    return _ScalarStep(F, hdt * state.rho_prev, mass,
                       transport=upwind_band(mass, F[1:-1]))


def _add_flame(ab, a):
    """Add the flame propagation term across the interior faces ``a`` of
    the cells of band ``ab`` (len(a) = n - 1), upwind with respect to the
    flame advection: a_j > 0 feeds cell j from cell j-1, a_j < 0 feeds cell
    j-1 from cell j."""
    apos = np.maximum(a, 0.0)
    aneg = np.negative(a)
    np.maximum(aneg, 0.0, out=aneg)
    ab[1, 1:] += apos
    ab[2, :-1] -= apos
    ab[1, :-1] += aneg
    ab[0, 1:] -= aneg


def _advance_scalar(step, y, y_face=None, reaction_diag=None,
                    reaction_rhs=None, flame=None):
    """Advance one cell scalar through the two-level balance.

    Implicit mode solves a tridiagonal system on a copy of the step's
    transport band; explicit mode moves the convection through the given
    faces ``y_face`` to the right hand side and, without an implicit term,
    divides by the cell mass.  Optional per-cell implicit reaction terms add
    ``reaction_diag`` to the diagonal and ``reaction_rhs`` to the right hand
    side; an optional ``flame`` advection field adds the (always implicit)
    flame propagation term.

    An explicit system is solved on the narrowest band that holds it: the
    diagonal, or the (1, 1) band over the cells from the first to the last
    face with a nonzero flame term, every other row divided by its
    diagonal.  Every row keeps its operations, so the result is bitwise
    that of ``gtsv`` on the full band.
    """
    rhs = step.mass_prev * y
    if reaction_rhs is not None:
        rhs += reaction_rhs
    if step.transport is not None:
        ab = step.transport.copy()
        if reaction_diag is not None:
            ab[1] += reaction_diag
        if flame is not None:
            _add_flame(ab, flame[1:-1])
        return solve_banded((1, 1), ab, rhs, overwrite_ab=True)
    Fy = step.F * y_face
    rhs -= Fy[1:] - Fy[:-1]
    diag = step.mass
    if reaction_diag is not None:
        diag = diag + reaction_diag
    elif flame is None:
        rhs /= diag
        return rhs
    fronts = () if flame is None else flame.nonzero()[0]
    if len(fronts) == 0:
        return solve_banded((0, 0), diag[np.newaxis], rhs, overwrite_b=True)
    # cells first..last - 1 hold every face with a nonzero flame term
    first = fronts[0] - 1
    last = fronts[-1] + 1
    ab = np.zeros((3, last - first))
    ab[1] = diag[first:last]
    _add_flame(ab, flame[first + 1:last])
    rhs[first:last] = solve_banded((1, 1), ab, rhs[first:last],
                                   overwrite_ab=True, overwrite_b=True)
    rhs[:first] /= diag[:first]
    rhs[last:] /= diag[last:]
    return rhs


@np.errstate(invalid="ignore")
def chemistry_step(state, config):
    """Run the full chemistry stage of one time step of the level's ``dt``,
    the step that built its (rho_prev, rho, flux).

    An explicit step refuses a level at material CFL > 1.  Order: indicator,
    reaction invariant, neutral, fuel (with implicit reaction), then the
    oxidant and product closures.  Face values of the closed species are
    derived from the transported ones so that their implied balances hold
    exactly.  A non-finite input fraction turns into NaN on the way
    (inf - inf, 0 * inf) without a warning, and the [0, 1] gate on the new
    fractions names the first non-finite cell.
    """
    grid = state.grid
    mix = state.mixture
    eps = config.epsilon
    step = _scalar_step(state, config)

    faces = {}
    if step.stencil is not None:
        faces = {"G": face_values(state.G, step.stencil),
                 **_level_faces(state, step.stencil)}
    flame = flame_advection_field(state.G, config.flame_speed_product)
    G_next = _advance_scalar(step, state.G, faces.get("G"), flame=flame)
    z_next = _advance_scalar(step, state.z, faces.get("z"))
    yN_next = _advance_scalar(step, state.y_N, faces.get("y_N"))

    burning = np.subtract(0.5, G_next)
    np.maximum(burning, 0.0, out=burning)  # (1/2 - G)^+
    burn = grid.cell_volumes / eps
    burn *= burning
    z_plus = np.maximum(z_next, 0.0)
    # burn nu_F W_F z^+
    reaction_rhs = burn * mix.nu_F
    reaction_rhs *= mix.W_F
    reaction_rhs *= z_plus
    yF_next = _advance_scalar(step, state.y_F, faces.get("y_F"),
                              reaction_diag=burn, reaction_rhs=reaction_rhs)

    yO_next = y_O_from_z(mix, yF_next, z_next)
    yP_next = np.subtract(1.0, yF_next)
    yP_next -= yO_next
    yP_next -= yN_next  # 1 - y_F - y_O - y_N

    for name, y in (("G", G_next), ("y_F", yF_next), ("y_O", yO_next),
                    ("y_N", yN_next), ("y_P", yP_next)):
        require_fraction(name, y)

    # heat release actually applied: Lambda / eps * eta(y^{n+1}) (1/2 - G)^+
    omega_theta = yF_next / (mix.nu_F * mix.W_F)
    omega_theta -= z_plus  # eta(y^{n+1})
    omega_theta *= mix.reaction_heat_coefficient / eps
    omega_theta *= burning

    return ChemResult(
        G=G_next, z=z_next, y_F=yF_next, y_O=yO_next, y_N=yN_next,
        y_P=yP_next, omega_theta=omega_theta, limiter=config.limiter,
    )
