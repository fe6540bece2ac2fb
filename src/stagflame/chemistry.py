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

The face values each species balance convected are reported for the energy
audit alone (``ChemResult.face_values``).  An explicit step has them from its
transport; an implicit step's upwind faces follow from the new fractions
and are built only when read.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, require_fraction
from .linalg import solve_banded, upwind_band
from .thermo import y_O_from_z, z_from_fractions
from .transport import FaceStencil, face_stencil, face_values, upwind_face_values

TIME_MODES = ("implicit-upwind", "explicit-limited")
# The flame advection is off on faces where the indicator gradient is below
# this fraction of the indicator range per cell: round-off, not a front.
_GRAD_THRESHOLD = 1e-12


@dataclass(frozen=True)
class ChemStepConfig:
    """Parameters of the chemistry step.

    ``epsilon`` is the relaxation time of the reaction (positive).
    ``flame_speed_product`` is the constant rho_u * u_f appearing in the
    flame propagation term.  ``time_mode`` selects implicit upwind transport
    (unconditionally stable) or explicit transport with a limiter for the
    convective face values; the flame term stays implicit either way.
    """

    epsilon: float
    flame_speed_product: float = 0.0
    time_mode: str = "implicit-upwind"
    limiter: object = field(default=None)

    def __post_init__(self):
        if self.time_mode not in TIME_MODES:
            raise ConfigError(f"unknown time_mode {self.time_mode!r}")
        if not self.epsilon > 0.0:
            raise ConfigError("epsilon must be positive")
        if self.flame_speed_product < 0.0:
            raise ConfigError("flame_speed_product must be non-negative")


@dataclass
class ChemResult:
    """Output of one chemistry step: new scalars and the heat release
    actually applied.  ``flux`` holds the mass fluxes the species were
    convected with, and ``explicit_faces`` the z, y_F, y_O and y_N faces an
    explicit step convected (None in implicit mode)."""

    G: np.ndarray
    z: np.ndarray
    y_F: np.ndarray
    y_O: np.ndarray
    y_N: np.ndarray
    y_P: np.ndarray
    omega_theta: np.ndarray
    flux: np.ndarray
    mixture: object
    explicit_faces: dict = None

    @cached_property
    def face_values(self):
        """The face values of z, y_F, y_O, y_N and y_P that each species
        balance convected with ``flux`` (needed to audit the total-energy
        budget), built on first read.  Implicit faces are the upwind values
        of the new z, y_N and y_F, with y_O's derived from them; the closure
        y_P's follow from the others in either mode."""
        faces = self.explicit_faces
        if faces is None:
            z = upwind_face_values(self.z, self.flux)
            y_N = upwind_face_values(self.y_N, self.flux)
            y_F = upwind_face_values(self.y_F, self.flux)
            faces = {"z": z, "y_F": y_F,
                     "y_O": y_O_from_z(self.mixture, y_F, z), "y_N": y_N}
        return {**faces, "y_P": 1.0 - faces["y_F"] - faces["y_O"] - faces["y_N"]}


def flame_advection_field(G, config, grid):
    """Per-face flame advection velocity rho_u u_f * sign(grad G).

    The gradient at a face is a centred difference of face-interpolated
    indicator values; where it is flat (below ``_GRAD_THRESHOLD`` times the
    indicator range per cell) the advection field is switched off, and it is
    always zero at the walls.
    """
    G = np.asarray(G)
    n = G.shape[0]
    h = grid.h
    G_hat = np.empty(n + 1)
    inner = np.add(G[:-1], G[1:], out=G_hat[1:n])
    inner *= 0.5  # (G_L + G_R) / 2
    G_hat[0] = G[0]
    G_hat[n] = G[-1]
    a = np.zeros(n + 1)
    grad = np.subtract(G_hat[2:], G_hat[:-2])
    grad /= 2.0 * h  # centred difference of the face values
    span = float(G.max() - G.min())
    cut = _GRAD_THRESHOLD * span / h
    # a = rho_u u_f sign(grad G), 0 where |grad G| < cut
    sign = np.sign(grad, out=a[1:n])
    sign[np.abs(grad, out=grad) < cut] = 0.0
    sign *= config.flame_speed_product
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
    if config.time_mode == "explicit-limited":
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


def advance_G(state, config, step=None):
    """Advance the burnt-zone indicator one step of the level's ``dt``;
    returns the new G.  ``step`` is the chemistry step's ``_ScalarStep``
    (built when omitted)."""
    if step is None:
        step = _scalar_step(state, config)
    a = flame_advection_field(state.G, config, state.grid)
    G_face = None if step.stencil is None else face_values(state.G, step.stencil)
    return _advance_scalar(step, state.G, G_face, flame=a)


@np.errstate(invalid="ignore")
def chemistry_step(state, config):
    """Run the full chemistry stage of one time step of the level's ``dt``,
    the step that built its (rho_prev, rho, flux).

    Order: indicator, reaction invariant, neutral, fuel (with implicit
    reaction), then the oxidant and product closures.  Face values of the
    closed species are derived from the transported ones so that their
    implied balances hold exactly.  A non-finite input fraction turns into
    NaN on the way (inf - inf, 0 * inf) without a warning, and the [0, 1]
    gate on the new fractions names the first non-finite cell.
    """
    grid = state.grid
    mix = state.mixture
    eps = config.epsilon
    step = _scalar_step(state, config)
    explicit = step.stencil is not None

    G_next = advance_G(state, config, step)

    z_face = yN_face = yF_face = None
    if explicit:
        # limit y_O, not z, so that y_O keeps its maximum principle; z's
        # faces (and balance) are the same linear combination of theirs
        yO_face = face_values(state.y_O, step.stencil)
        yN_face = face_values(state.y_N, step.stencil)
        yF_face = face_values(state.y_F, step.stencil)
        z_face = z_from_fractions(mix, yF_face, yO_face)
    z_next = _advance_scalar(step, state.z, z_face)
    yN_next = _advance_scalar(step, state.y_N, yN_face)

    burning = np.subtract(0.5, G_next)
    np.maximum(burning, 0.0, out=burning)  # (1/2 - G)^+
    burn = grid.cell_volumes / eps
    burn *= burning
    z_plus = np.maximum(z_next, 0.0)
    # burn nu_F W_F z^+
    reaction_rhs = burn * mix.nu_F
    reaction_rhs *= mix.W_F
    reaction_rhs *= z_plus
    yF_next = _advance_scalar(step, state.y_F, yF_face, reaction_diag=burn,
                              reaction_rhs=reaction_rhs)

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

    explicit_faces = None
    if explicit:
        explicit_faces = {"z": z_face, "y_F": yF_face, "y_O": yO_face,
                         "y_N": yN_face}
    return ChemResult(
        G=G_next, z=z_next, y_F=yF_next, y_O=yO_next, y_N=yN_next,
        y_P=yP_next, omega_theta=omega_theta, flux=step.F, mixture=mix,
        explicit_faces=explicit_faces,
    )
