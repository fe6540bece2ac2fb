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
faces follow from those of y_F and y_O.  Every tridiagonal system goes
through ``solve_banded``, imported from ``stagflame.linalg`` under scipy's
name and argument order: an implicit step makes four such solves (G, z, y_N,
y_F on copies of the band, to which G adds its flame term and y_F its
reaction term), an explicit step two (G and y_F, on a band holding only the
cell masses and those terms).  The benchmark's span recorder counts and
times the solves and the face values by wrapping this module's
``solve_banded`` and ``face_values`` attributes, so the names must stay.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, require_fraction
from .linalg import solve_banded, upwind_band
from .thermo import y_O_from_z, z_from_fractions
from .transport import FaceStencil, face_stencil, face_values, upwind_face_values

_TIME_MODES = ("implicit-upwind", "explicit-limited")


@dataclass(frozen=True)
class ChemStepConfig:
    """Parameters of the chemistry step.

    Exactly one of ``epsilon`` (a fixed relaxation time) or ``epsilon_per_h``
    (relaxation time proportional to the cell size) must be set.
    ``flame_speed_product`` is the constant rho_u * u_f appearing in the
    flame propagation term.  ``time_mode`` selects implicit upwind transport
    (unconditionally stable) or explicit transport with a limiter for the
    convective face values; the flame term stays implicit either way.
    """

    epsilon: float = None
    epsilon_per_h: float = None
    flame_speed_product: float = 0.0
    time_mode: str = "implicit-upwind"
    limiter: object = field(default=None)
    grad_threshold: float = 1e-12

    def __post_init__(self):
        if self.time_mode not in _TIME_MODES:
            raise ConfigError(f"unknown time_mode {self.time_mode!r}")
        if (self.epsilon is None) == (self.epsilon_per_h is None):
            raise ConfigError("set exactly one of epsilon, epsilon_per_h")
        for name in ("epsilon", "epsilon_per_h"):
            v = getattr(self, name)
            if v is not None and not v > 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.flame_speed_product < 0.0:
            raise ConfigError("flame_speed_product must be non-negative")

    def resolve_epsilon(self, grid):
        if self.epsilon is not None:
            return self.epsilon
        return self.epsilon_per_h * grid.h


@dataclass
class ChemResult:
    """Output of one chemistry step: new scalars, the heat release actually
    applied, and the face values each species balance convected with the
    step's mass fluxes (needed to audit the total-energy budget)."""

    G: np.ndarray
    z: np.ndarray
    y_F: np.ndarray
    y_O: np.ndarray
    y_N: np.ndarray
    y_P: np.ndarray
    omega_theta: np.ndarray
    face_values: dict


def flame_advection_field(G, config, grid):
    """Per-face flame advection velocity rho_u u_f * sign(grad G).

    The gradient at a face is a centred difference of face-interpolated
    indicator values; where it is flat (below ``grad_threshold`` times the
    indicator range per cell) the advection field is switched off, and it is
    always zero at the walls.
    """
    G = np.asarray(G)
    n = G.shape[0]
    h = grid.h
    G_hat = np.empty(n + 1)
    G_hat[1:n] = 0.5 * (G[:-1] + G[1:])
    G_hat[0] = G[0]
    G_hat[n] = G[-1]
    a = np.zeros(n + 1)
    grad = (G_hat[2:] - G_hat[:-2]) / (2.0 * h)
    span = float(np.max(G) - np.min(G))
    cut = config.grad_threshold * span / h
    sign = np.sign(grad)
    sign[np.abs(grad) < cut] = 0.0
    a[1:n] = config.flame_speed_product * sign
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


def _scalar_step(state, dt, config):
    hdt = state.grid.cell_volumes / dt
    F = state.flux
    mass = hdt * state.rho
    if config.time_mode == "explicit-limited":
        stencil = face_stencil(F, config.limiter, state.rho, dt, state.grid)
        return _ScalarStep(F, hdt * state.rho_prev, mass, stencil=stencil)
    return _ScalarStep(F, hdt * state.rho_prev, mass,
                       transport=upwind_band(mass, F[1:-1]))


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
    """
    rhs = step.mass_prev * y
    if reaction_rhs is not None:
        rhs = rhs + reaction_rhs
    if step.transport is not None:
        ab = step.transport.copy()
    else:
        Fy = step.F * y_face
        rhs = rhs - (Fy[1:] - Fy[:-1])
        if flame is None and reaction_diag is None:
            return rhs / step.mass
        ab = np.zeros((3, y.shape[0]))
        ab[1] = step.mass
    if reaction_diag is not None:
        ab[1] += reaction_diag
    if flame is not None:
        # upwind with respect to the flame advection: a_j > 0 feeds cell j
        # from cell j-1, a_j < 0 feeds cell j-1 from cell j
        a_int = flame[1:-1]
        apos = np.maximum(a_int, 0.0)
        aneg = np.maximum(-a_int, 0.0)
        ab[1, 1:] += apos
        ab[2, :-1] -= apos
        ab[1, :-1] += aneg
        ab[0, 1:] -= aneg
    return solve_banded((1, 1), ab, rhs, overwrite_ab=True, check_finite=False)


def advance_G(state, dt, config, step=None):
    """Advance the burnt-zone indicator one step; returns the new G.
    ``step`` is the chemistry step's ``_ScalarStep`` (built when omitted)."""
    if step is None:
        step = _scalar_step(state, dt, config)
    a = flame_advection_field(state.G, config, state.grid)
    G_face = None if step.stencil is None else face_values(state.G, step.stencil)
    return _advance_scalar(step, state.G, G_face, flame=a)


@np.errstate(invalid="ignore")
def chemistry_step(state, dt, config):
    """Run the full chemistry stage of one time step.

    Order: indicator, reaction invariant, neutral, fuel (with implicit
    reaction), then the oxidant and product closures.  Face values of the
    closed species are derived from the transported ones so that their
    implied balances hold exactly.  A non-finite input fraction turns into
    NaN on the way (inf - inf, 0 * inf) without a warning, and the [0, 1]
    gate on the new fractions names the first non-finite cell.
    """
    grid = state.grid
    mix = state.mixture
    eps = config.resolve_epsilon(grid)
    step = _scalar_step(state, dt, config)
    explicit = step.stencil is not None

    G_next = advance_G(state, dt, config, step)

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

    burn = grid.cell_volumes / eps * np.maximum(0.5 - G_next, 0.0)
    z_plus = np.maximum(z_next, 0.0)
    yF_next = _advance_scalar(step, state.y_F, yF_face, reaction_diag=burn,
                              reaction_rhs=burn * mix.nu_F * mix.W_F * z_plus)

    yO_next = y_O_from_z(mix, yF_next, z_next)
    yP_next = 1.0 - yF_next - yO_next - yN_next

    for name, y in (("G", G_next), ("y_F", yF_next), ("y_O", yO_next),
                    ("y_N", yN_next), ("y_P", yP_next)):
        require_fraction(name, y)

    # heat release actually applied: Lambda / eps * eta(y^{n+1}) (1/2 - G)^+
    eta_next = yF_next / (mix.nu_F * mix.W_F) - z_plus
    omega_theta = (
        mix.reaction_heat_coefficient / eps
        * eta_next * np.maximum(0.5 - G_next, 0.0)
    )

    if not explicit:
        z_face = upwind_face_values(z_next, step.F)
        yN_face = upwind_face_values(yN_next, step.F)
        yF_face = upwind_face_values(yF_next, step.F)
        yO_face = y_O_from_z(mix, yF_face, z_face)
    yP_face = 1.0 - yF_face - yO_face - yN_face
    return ChemResult(
        G=G_next, z=z_next, y_F=yF_next, y_O=yO_next, y_N=yN_next,
        y_P=yP_next, omega_theta=omega_theta,
        face_values={"z": z_face, "y_F": yF_face, "y_O": yO_face,
                     "y_N": yN_face, "y_P": yP_face},
    )
