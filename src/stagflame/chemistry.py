"""Chemistry step: burnt-zone indicator, species transport, heat release.

The step runs between the two density levels already produced by the flow
solver, so every scalar balance uses the previous-step mass fluxes and is
conservative by construction.  The burnt-zone indicator G is transported
with the material flow and eats into the fresh gas at the turbulent flame
speed; the reaction term is closed by the indicator (it only burns where
G < 1/2) and is always treated implicitly, cell by cell, which keeps the
fuel fraction non-negative for any step size.

Every tridiagonal system goes through ``solve_banded``, imported from
``stagflame.linalg`` under scipy's name and argument order: an implicit step
makes four such solves (G, z, y_N, y_F, all sharing one transport matrix,
``linalg.upwind_band`` of the step's mass fluxes, to which G adds its flame
term and y_F its reaction term), an explicit step two (G with its flame
term, y_F with its reaction term, on a band holding only the cell masses).
The benchmark's span recorder counts and times the solves by wrapping this
module's ``solve_banded`` attribute, so the name must stay.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, require_fraction
from .linalg import solve_banded, upwind_band
from .thermo import y_O_from_z
from .transport import face_values, upwind_face_values

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


def _implicit_transport_band(state, F, dt):
    """Band of (h/dt) rho^n y + div(rho y u) with implicit upwind faces.

    The matrix depends on the step's fluxes and densities only, so one
    implicit chemistry step builds it once and shares it between G, z, y_N
    and y_F.
    """
    hdt = state.grid.cell_volumes / dt
    return upwind_band(hdt * state.rho, F[1:-1])


def _explicit_face_values(state, y, F, dt, config):
    return face_values(
        y, F, config.limiter, rho_next=state.rho, dt=dt, grid=state.grid
    )


def _advance_scalar(state, y, F, dt, config, transport=None,
                    y_face_explicit=None, reaction_diag=None,
                    reaction_rhs=None, flame=None):
    """Advance one cell scalar through the two-level balance.

    Implicit mode solves a tridiagonal system on a copy of ``transport``,
    the step's ``_implicit_transport_band``; explicit mode divides by the
    per-cell mass after moving the (given) limited convection to the right
    hand side.  Optional per-cell implicit reaction terms add
    ``reaction_diag`` to the diagonal and ``reaction_rhs`` to the right hand
    side; an optional ``flame`` advection field adds the (always implicit)
    flame propagation term.
    """
    grid = state.grid
    hdt = grid.cell_volumes / dt
    rhs = hdt * state.rho_prev * y
    if reaction_rhs is not None:
        rhs = rhs + reaction_rhs
    if config.time_mode == "implicit-upwind":
        ab = transport.copy()
    else:
        ab = np.zeros((3, grid.n_cells))
        ab[1] = hdt * state.rho
        Fy = F * y_face_explicit
        rhs = rhs - (Fy[1:] - Fy[:-1])
        if flame is None and reaction_diag is None:
            return rhs / ab[1]
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


def advance_G(state, dt, config, transport=None):
    """Advance the burnt-zone indicator one step; returns the new G.

    In implicit mode ``transport`` may pass the step's transport band (built
    here when omitted).
    """
    F = state.flux
    a = flame_advection_field(state.G, config, state.grid)
    if config.time_mode == "explicit-limited":
        G_face = _explicit_face_values(state, state.G, F, dt, config)
        return _advance_scalar(state, state.G, F, dt, config,
                               y_face_explicit=G_face, flame=a)
    if transport is None:
        transport = _implicit_transport_band(state, F, dt)
    return _advance_scalar(state, state.G, F, dt, config, transport, flame=a)


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
    F = state.flux
    eps = config.resolve_epsilon(grid)
    explicit = config.time_mode == "explicit-limited"
    transport = None if explicit else _implicit_transport_band(state, F, dt)

    G_next = advance_G(state, dt, config, transport)

    if explicit:
        z_face = _explicit_face_values(state, state.z, F, dt, config)
        yN_face = _explicit_face_values(state, state.y_N, F, dt, config)
        yF_face = _explicit_face_values(state, state.y_F, F, dt, config)
    z_next = _advance_scalar(state, state.z, F, dt, config, transport,
                             y_face_explicit=z_face if explicit else None)
    yN_next = _advance_scalar(state, state.y_N, F, dt, config, transport,
                              y_face_explicit=yN_face if explicit else None)

    burn = grid.cell_volumes / eps * np.maximum(0.5 - G_next, 0.0)
    z_plus = np.maximum(z_next, 0.0)
    r_diag = burn
    r_rhs = burn * mix.nu_F * mix.W_F * z_plus
    yF_next = _advance_scalar(state, state.y_F, F, dt, config, transport,
                              y_face_explicit=yF_face if explicit else None,
                              reaction_diag=r_diag, reaction_rhs=r_rhs)

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
        z_face = upwind_face_values(z_next, F)
        yN_face = upwind_face_values(yN_next, F)
        yF_face = upwind_face_values(yF_next, F)
    yO_face = y_O_from_z(mix, yF_face, z_face)
    yP_face = 1.0 - yF_face - yO_face - yN_face
    return ChemResult(
        G=G_next, z=z_next, y_F=yF_next, y_O=yO_next, y_N=yN_next,
        y_P=yP_next, omega_theta=omega_theta,
        face_values={"z": z_face, "y_F": yF_face, "y_O": yO_face,
                     "y_N": yN_face, "y_P": yP_face},
    )
