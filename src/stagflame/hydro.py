"""Segregated pressure-correction flow step on the staggered grid.

One flow step runs: rescale the old pressure gradient, predict face
velocities with the old gradient (implicit in the convection), measure the
kinetic energy the prediction dissipated, then solve the coupled
mass/enthalpy/EOS correction system for the end-of-step density, sensible
enthalpy and pressure.  The velocity is eliminated through the correction
relation and the cell-local EOS p = kappa rho h_s is substituted, which
leaves an enthalpy balance in the pressure alone: Newton runs on the N cell
pressures with a tridiagonal Jacobian, then one linear mass solve gives the
density and the EOS the enthalpy.  Newton is the only nonlinear path: a
step it cannot converge ends in a StepFailure that says why it stopped.
The pieces are arranged so that a discrete total energy - sensible plus
chemical plus kinetic including a pressure-gradient storage term - is
conserved to the nonlinear solver tolerance.

The prediction and every Newton step are tridiagonal solves through
``solve_banded``, imported from ``stagflame.linalg`` under scipy's name and
argument order; the benchmark's span recorder counts and times them by
wrapping this module's ``solve_banded`` attribute, so the name must stay.
The linear mass solve (``upwind_mass_solve``, on ``linalg.upwind_band`` of
the face velocities) calls LAPACK directly and is not counted with them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StepFailure
from .linalg import solve_banded, upwind_mass_solve
from .thermo import chemical_enthalpy
from .transport import (
    dual_density,
    dual_mass_flux,
    primal_mass_flux,
    upwind_face_values,
)

# Newton stagnates when the residual has not gone 10% below its minimum for
# 12 iterations: in 1200 random one-step states no converging solve went over
# 9 without such a drop, and each stalled one stopped within 19, not at 100.
_STAGNATION_DROP = 0.9
_STAGNATION_ITERATIONS = 12


@dataclass(frozen=True)
class CorrectionSolveConfig:
    """Tolerances of the nonlinear correction solve.

    ``nonlinear_tol`` is relative (residuals are scaled by the natural size
    of each equation).  Newton that has not met it after ``max_iterations``
    iterations ends the step with a StepFailure.
    """

    nonlinear_tol: float = 1e-12
    max_iterations: int = 100

    def __post_init__(self):
        if not 0.0 < self.nonlinear_tol < 1.0:
            raise ValueError("nonlinear_tol must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass
class CorrectionResult:
    """End-of-step fields of the correction solve (velocities at faces)."""

    u: np.ndarray
    rho: np.ndarray
    h_s: np.ndarray
    p: np.ndarray
    flux: np.ndarray
    iterations: int
    residual: float
    # always False, since Newton is the only path; kept because the
    # benchmark's span recorder still reads it
    used_fallback = False


@dataclass
class EulerResult(CorrectionResult):
    """Everything one flow step produces: the corrected fields plus the
    kinetic energy the prediction dissipated and its cell source."""

    kinetic_residual: np.ndarray
    source: np.ndarray


def pressure_gradient(p, grid):
    """Face pressure gradient (p_K - p_L)/|D_sigma|; zero at the walls."""
    p = np.asarray(p)
    g = np.zeros(grid.n_faces)
    g[1:-1] = (p[1:] - p[:-1]) / grid.dual_volumes[1:-1]
    return g


def scale_pressure_gradient(grad_p, rho_dual_n, rho_dual_nm1):
    """Old gradient rescaled by sqrt(rho^n_D / rho^{n-1}_D).

    This is the exact factor that lets the pressure-gradient storage term of
    the kinetic energy telescope between steps.
    """
    return np.sqrt(np.asarray(rho_dual_n) / np.asarray(rho_dual_nm1)) * np.asarray(grad_p)


def predict_velocity(state, dual_flux, sgp, dt, rho_d_n, rho_d_nm1):
    """Implicit momentum prediction with the rescaled old pressure gradient.

    Solves, on every interior face, the dual-cell momentum balance with
    centred face velocities and the frozen gradient ``sgp``; wall velocities
    stay zero.  ``rho_d_n`` and ``rho_d_nm1`` are the dual densities of the
    current and previous levels.  Returns the full face array.
    """
    n = state.grid.n_cells
    dv = state.grid.dual_volumes[1:-1]
    hdt = dv / dt
    half = 0.5 * dual_flux  # centred convection: half of each dual flux
    ab = np.empty((3, n - 1))
    ab[0, 0] = 0.0
    ab[0, 1:] = half[1:-1]
    ab[1] = hdt * rho_d_n[1:-1] + (half[1:] - half[:-1])
    ab[2, :-1] = -half[1:-1]
    ab[2, -1] = 0.0
    rhs = hdt * rho_d_nm1[1:-1] * state.u[1:-1] - dv * sgp[1:-1]
    u_tilde = np.zeros(n + 1)
    u_tilde[1:n] = solve_banded((1, 1), ab, rhs)
    return u_tilde


def kinetic_residuals(state_n, u_tilde, dt, rho_d_nm1):
    """Kinetic energy dissipated by the prediction on each dual cell.

    R_sigma = |D_sigma| rho^{n-1}_D (u_tilde - u^n)^2 / (2 dt), with
    ``rho_d_nm1`` the previous-level dual density; walls carry none.
    """
    R = state_n.grid.dual_volumes * rho_d_nm1 / (2.0 * dt) * (u_tilde - state_n.u) ** 2
    R[0] = 0.0
    R[-1] = 0.0
    return R


def compensation_source(R, grid):
    """Distribute the prediction residuals back to the cells.

    Each interior face residual is split evenly between its two cells; a
    boundary face residual goes entirely to its one cell.  The total is
    preserved: sum |K| S_K = sum R_sigma.
    """
    n = grid.n_cells
    w = np.full(grid.n_faces, 0.5)
    w[0] = 1.0
    w[-1] = 1.0
    wR = w * np.asarray(R)
    return (wR[:-1] + wR[1:]) / grid.cell_volumes


def face_kinetic_energy(state):
    """Kinetic energy per unit volume of each dual cell.

    It pairs the new velocity with the previous-level dual density and
    stores the pressure-gradient term that the correction equation
    exchanges with it.
    """
    rho_d_prev = dual_density(state.grid, state.rho_prev)
    g = pressure_gradient(state.p, state.grid)
    return 0.5 * rho_d_prev * state.u**2 + state.dt**2 * g**2 / (2.0 * rho_d_prev)


def cell_kinetic_energy(state):
    """Cell kinetic energy: half the dual-volume-weighted face values."""
    grid = state.grid
    ek = face_kinetic_energy(state)
    dv = grid.dual_volumes
    return (dv[:-1] * ek[:-1] + dv[1:] * ek[1:]) / (2.0 * grid.cell_volumes)


def total_energy(state):
    """Discrete total energy of a state (J per unit cross-section).

    Sensible and chemical internal energy over the cells (the chemical part
    weighted by the previous-level density, matching the two-level species
    balance) plus kinetic energy over the interior dual cells, including the
    pressure-gradient storage term.  Exactly conserved by the full step up
    to the nonlinear solver tolerance.
    """
    grid = state.grid
    mix = state.mixture
    hc = chemical_enthalpy(mix, state.y_F, state.y_O, state.y_N, state.y_P)
    e_int = np.sum(grid.cell_volumes * (state.rho * state.e_s + state.rho_prev * hc))
    ek = face_kinetic_energy(state)
    e_kin = np.sum(grid.dual_volumes[1:-1] * ek[1:-1])
    return float(e_int + e_kin)


class _CorrectionSystem:
    """The correction equations, reduced to one equation per cell in p.

    The EOS p = kappa rho h_s is local to each cell, so rho h_s = p / kappa
    and the upwind enthalpy flux is F h_up = u rho_up h_up = u p_up / kappa:
    the sensible-enthalpy balance of cell K involves the pressure alone,

        hdt (p/kappa - (rho h_s)^n) + div(u p_up) / kappa - hdt (p - p^n)
            + sum of u_j (p_{j-1} - p_j) over faces j with K downwind
            - |K| S = 0,

    with the velocity eliminated, u_j = a_j + b_j (p_{j-1} - p_j) on
    interior faces and zero at the walls.  A face couples only its two
    cells, so the Jacobian is tridiagonal; Newton solves it through the
    module's ``solve_banded``.  Upwind switches freeze per
    linearisation (semismooth Newton).  Once p is known, the mass balance
    is linear in rho (``density``) and h_s = p / (kappa rho).  Everything
    that does not depend on p is built once, in the constructor.
    """

    def __init__(self, state, u_tilde, sgp, dt, source, rho_d_n):
        grid = state.grid
        self.grid = grid
        self.dt = dt
        self.n = grid.n_cells
        self.hdt = grid.cell_volumes / dt
        self.kappa = (state.mixture.gamma - 1.0) / state.mixture.gamma
        self.inv_kappa = 1.0 / self.kappa
        rho_d = rho_d_n[1:-1]
        self.a_face = u_tilde[1:-1] + dt / rho_d * sgp[1:-1]
        self.b_face = dt / (rho_d * grid.dual_volumes[1:-1])
        self.minus_b_kappa = -self.b_face * self.inv_kappa
        # the Jacobian's diagonal before the face terms: the storage term
        self.jac_diag = self.hdt * (self.inv_kappa - 1.0)
        self.rho_n = state.rho
        rhoh_n = state.rho * state.h_s
        # the terms of the enthalpy balance that do not depend on p
        self.hs_known = (self.hdt * (state.p - rhoh_n)
                         - grid.cell_volumes * source)
        hdt0 = float(self.hdt[0])
        self.mass_scale = hdt0 * max(float(np.max(np.abs(state.rho))), 1e-300)
        self.hs_scale = hdt0 * max(float(np.max(np.abs(rhoh_n))), 1e-300)

    def velocity(self, p):
        u = np.zeros(self.n + 1)
        u[1:-1] = self.a_face + self.b_face * (p[:-1] - p[1:])
        return u

    def residual(self, p):
        """Enthalpy residual at p, plus the face quantities ``jacobian`` reuses.

        The storage term keeps ``p / kappa - p``: the rounded constant
        ``1 / kappa - 1`` would bias every step's energy balance.
        """
        dp = p[:-1] - p[1:]
        u = self.a_face + self.b_face * dp  # interior faces
        pos = u >= 0.0  # the left cell is upwind
        p_up = np.where(pos, p[:-1], p[1:])
        Fh = u * p_up / self.kappa
        # -(u . grad p) with upwind face pressures: the term of the upwind
        # cell vanishes identically (p_sigma = p_K there), so the whole
        # contribution u_j (p_{j-1} - p_j) lands in the downwind cell
        udp = u * dp
        work_right = np.where(pos, udp, 0.0)
        r = self.hdt * (p / self.kappa - p) + self.hs_known
        r[:-1] += Fh + (udp - work_right)
        r[1:] += work_right - Fh
        return r, (dp, u, pos, p_up)

    def norm(self, r):
        return float(np.max(np.abs(r))) / self.hs_scale

    def jacobian(self, lin):
        """Tridiagonal Jacobian at the point of ``lin``, in band storage.

        Row 0 holds the upper diagonal (d r_i / d p_{i+1} at column i+1),
        row 1 the diagonal, row 2 the lower diagonal (d r_{i+1} / d p_i at
        column i); both off-diagonals are indexed by interior face.  With
        w = d(u dp)/d p_L - u / kappa, the face terms are
        upper = -b p_up / kappa - [u < 0] w and
        lower = -b p_up / kappa + [u >= 0] w, and each diagonal entry
        follows from them: d(u dp)/d p_L - lower on the left cell and
        -(upper + d(u dp)/d p_L) on the right one.
        """
        dp, u, pos, p_up = lin
        dwork = u + self.b_face * dp  # d(u dp) / d p_L = -d(u dp) / d p_R
        w = dwork - u * self.inv_kappa
        w_pos = np.where(pos, w, 0.0)
        m = self.minus_b_kappa * p_up
        ab = np.empty((3, self.n))
        ab[0, 0] = 0.0
        ab[2, -1] = 0.0
        upper = np.subtract(m, w - w_pos, out=ab[0, 1:])
        lower = np.add(m, w_pos, out=ab[2, :-1])
        diag = ab[1]
        diag[:] = self.jac_diag
        diag[:-1] += dwork - lower
        diag[1:] -= upper + dwork
        return ab

    def newton_step(self, r, band):
        """Newton update for the residual r with the Jacobian ``band``.

        ``band`` is left intact, so a later step can reuse it.  Returns
        ``(delta, None)``, or ``(None, why)`` when there is no usable step.
        """
        try:
            delta = solve_banded((1, 1), band, -r, overwrite_b=True,
                                 check_finite=False)
        except np.linalg.LinAlgError:
            return None, "singular Jacobian"
        if not np.all(np.isfinite(delta)):
            return None, "non-finite Newton step"
        return delta, None

    def density(self, u):
        """rho from the mass balance with upwind fluxes at face velocities u."""
        return upwind_mass_solve(self.grid, self.rho_n, u, self.dt)

    def mass_norm(self, rho, flux):
        r = self.hdt * (rho - self.rho_n) + flux[1:] - flux[:-1]
        return float(np.max(np.abs(r))) / self.mass_scale


def correction_solve(state, u_tilde, sgp, dt, source, cfg, rho_d_n):
    """Solve the correction system for (u, rho, h_s, p) at step end.

    Semismooth Newton on the N pressures of the reduced enthalpy balance
    (see ``_CorrectionSystem``; ``rho_d_n`` is the current dual density),
    starting from p^n: upwind switches freeze per iteration, each step is
    one tridiagonal banded solve, and a line step halves until p stays
    positive.  Once the tolerance is met, one more step with the last
    iteration's Jacobian takes the residual down to round-off, so that the
    energy drift does not build up over a run; it is kept only if the
    residual drops.  The velocity then follows from p,
    rho from one linear upwind mass solve (positive, since its matrix is an
    M-matrix) and h_s = p / (kappa rho) from the EOS.  Newton is the only
    path: when it reaches ``cfg.max_iterations``, stagnates, meets a
    singular Jacobian or takes a non-finite step, the solve raises
    StepFailure naming the reason and the iteration count.  The reported
    residual is the larger of the scaled enthalpy and mass residuals.
    """
    sys_ = _CorrectionSystem(state, u_tilde, sgp, dt, source, rho_d_n)
    p = np.array(state.p, dtype=float)
    why = "iteration cap reached"
    best, best_it = np.inf, 0
    for it in range(cfg.max_iterations + 1):
        r, lin = sys_.residual(p)
        res = sys_.norm(r)
        if res < cfg.nonlinear_tol:
            if it:  # the closing step
                delta, _ = sys_.newton_step(r, band)
                it += 1
                if delta is not None:
                    p_next = p + delta
                    res_next = sys_.norm(sys_.residual(p_next)[0])
                    if res_next < res and np.min(p_next) > 0.0:
                        p, res = p_next, res_next
            u = sys_.velocity(p)
            rho = sys_.density(u)
            flux = primal_mass_flux(rho, u)
            return CorrectionResult(
                u=u, rho=rho, h_s=p / (sys_.kappa * rho), p=p, flux=flux,
                iterations=it, residual=max(res, sys_.mass_norm(rho, flux)),
            )
        if it == cfg.max_iterations:
            break
        if res < _STAGNATION_DROP * best:
            best, best_it = res, it
        elif it - best_it >= _STAGNATION_ITERATIONS:
            why = "stagnated"
            break
        band = sys_.jacobian(lin)
        delta, stop = sys_.newton_step(r, band)
        if stop:
            why = stop
            break
        alpha = 1.0
        trial = p + delta
        while alpha > 1e-6 and np.min(trial) <= 0.0:
            alpha *= 0.5
            trial = p + alpha * delta
        p = trial
    raise StepFailure(
        f"correction solve stalled at residual {res:.3e} "
        f"(tolerance {cfg.nonlinear_tol:.1e}): {why} after {it} Newton "
        f"iterations"
    )


def euler_step(state, omega_theta, dt, cfg):
    """One full flow step from an accepted state (chemistry already done).

    Returns the corrected fields plus the prediction by-products needed for
    the energy audit.
    """
    grid = state.grid
    F_n = state.flux
    dual_flux = dual_mass_flux(F_n)
    grad_p = pressure_gradient(state.p, grid)
    rho_d_n = dual_density(grid, state.rho)
    rho_d_nm1 = dual_density(grid, state.rho_prev)
    sgp = scale_pressure_gradient(grad_p, rho_d_n, rho_d_nm1)
    u_tilde = predict_velocity(state, dual_flux, sgp, dt, rho_d_n, rho_d_nm1)
    R = kinetic_residuals(state, u_tilde, dt, rho_d_nm1)
    S = compensation_source(R, grid)
    corr = correction_solve(state, u_tilde, sgp, dt, omega_theta + S, cfg,
                            rho_d_n)
    return EulerResult(**vars(corr), kinetic_residual=R, source=S)


def internal_energy_residual(state_n, state_next, chem_face_values, S):
    """Residual of the implied internal-energy balance of one accepted step.

    The sensible part inherits the correction-solve residual; the chemical
    part cancels against the applied heat release exactly, provided the face
    values are the ones the chemistry step actually convected.  Returns the
    per-cell residual of the balance (per unit volume and time).
    """
    grid = state_next.grid
    mix = state_next.mixture
    dt = state_next.dt
    dh = mix.formation_enthalpies
    hc_next = chemical_enthalpy(mix, state_next.y_F, state_next.y_O,
                                state_next.y_N, state_next.y_P)
    hc_n = chemical_enthalpy(mix, state_n.y_F, state_n.y_O,
                             state_n.y_N, state_n.y_P)
    rho_e_next = state_next.rho * state_next.e_s + state_next.rho_prev * hc_next
    rho_e_n = state_n.rho * state_n.e_s + state_n.rho_prev * hc_n

    es_face = upwind_face_values(state_next.e_s, state_next.flux)
    sens_flux = state_next.flux * es_face
    hc_face = (
        dh[0] * chem_face_values["y_F"]
        + dh[1] * chem_face_values["y_O"]
        + dh[2] * chem_face_values["y_N"]
        + dh[3] * chem_face_values["y_P"]
    )
    chem_flux = state_n.flux * hc_face
    div = (sens_flux[1:] - sens_flux[:-1] + chem_flux[1:] - chem_flux[:-1])
    div /= grid.cell_volumes
    p_div_u = state_next.p * (state_next.u[1:] - state_next.u[:-1]) / grid.cell_volumes
    return (rho_e_next - rho_e_n) / dt + div + p_div_u - S
