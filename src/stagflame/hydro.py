"""Segregated pressure-correction flow step on the staggered grid.

One flow step runs: rescale the old pressure gradient, predict face
velocities with the old gradient (implicit in the convection), measure the
kinetic energy the prediction dissipated, then solve the coupled
mass/enthalpy/EOS correction system for the end-of-step density, sensible
enthalpy and pressure.  The velocity is eliminated through the correction
relation and the cell-local EOS p = kappa rho h_s is substituted, which
leaves an enthalpy balance in the pressure alone: Newton runs on the N cell
pressures with a tridiagonal Jacobian, then one linear mass solve gives the
density and the EOS the enthalpy.  The pieces are arranged so that a
discrete total energy - sensible plus chemical plus kinetic including a
pressure-gradient storage term - is conserved to the nonlinear solver
tolerance.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv

from .errors import StepFailure
from .thermo import chemical_enthalpy
from .transport import (
    dual_density,
    dual_mass_flux,
    primal_mass_flux,
    upwind_face_values,
)


@dataclass(frozen=True)
class CorrectionSolveConfig:
    """Tolerances of the nonlinear correction solve.

    ``nonlinear_tol`` is relative (residuals are scaled by the natural size
    of each equation).  When Newton fails to converge, a damped fixed-point
    sweep with ``under_relaxation`` on the pressure takes over.
    """

    nonlinear_tol: float = 1e-12
    max_iterations: int = 100
    under_relaxation: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.nonlinear_tol < 1.0:
            raise ValueError("nonlinear_tol must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0.0 < self.under_relaxation <= 1.0:
            raise ValueError("under_relaxation must lie in (0, 1]")


@dataclass
class CorrectionResult:
    u: np.ndarray
    rho: np.ndarray
    h_s: np.ndarray
    p: np.ndarray
    grad_p: np.ndarray
    flux: np.ndarray
    iterations: int
    residual: float
    used_fallback: bool


@dataclass
class EulerResult:
    """Everything one flow step produces (velocities at faces, scalars at cells)."""

    u: np.ndarray
    rho: np.ndarray
    h_s: np.ndarray
    p: np.ndarray
    grad_p: np.ndarray
    flux: np.ndarray
    u_tilde: np.ndarray
    kinetic_residual: np.ndarray
    source: np.ndarray
    iterations: int
    residual: float
    used_fallback: bool


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


def predict_velocity(state, dual_flux, sgp, dt):
    """Implicit momentum prediction with the rescaled old pressure gradient.

    Solves, on every interior face, the dual-cell momentum balance with
    centred face velocities and the frozen gradient ``sgp``; wall velocities
    stay zero.  Returns the full face array.
    """
    grid = state.grid
    n = grid.n_cells
    rho_d_n = dual_density(grid, state.rho)
    rho_d_nm1 = dual_density(grid, state.rho_prev)
    hdt = grid.dual_volumes / dt
    j = np.arange(1, n)
    diag = hdt[j] * rho_d_n[j] + 0.5 * (dual_flux[j] - dual_flux[j - 1])
    upper = 0.5 * dual_flux[j]
    lower = -0.5 * dual_flux[j - 1]
    rhs = hdt[j] * rho_d_nm1[j] * state.u[j] - grid.dual_volumes[j] * sgp[j]
    nn = n - 1
    ab = np.zeros((3, nn))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    u_tilde = np.zeros(n + 1)
    u_tilde[1:n] = solve_banded((1, 1), ab, rhs)
    return u_tilde


def kinetic_residuals(state_n, u_tilde, dt):
    """Kinetic energy dissipated by the prediction on each dual cell.

    R_sigma = |D_sigma| rho^{n-1}_D (u_tilde - u^n)^2 / (2 dt); walls carry
    none.
    """
    grid = state_n.grid
    rho_d_nm1 = dual_density(grid, state_n.rho_prev)
    R = grid.dual_volumes * rho_d_nm1 / (2.0 * dt) * (u_tilde - state_n.u) ** 2
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


def cell_kinetic_energy(state):
    """Cell kinetic energy: half the dual-volume-weighted face values.

    The face kinetic energy pairs the new velocity with the previous-level
    dual density and stores the pressure-gradient term that the correction
    equation exchanges with it.
    """
    grid = state.grid
    rho_d_prev = dual_density(grid, state.rho_prev)
    g = pressure_gradient(state.p, grid)
    ek = 0.5 * rho_d_prev * state.u**2 + state.dt**2 * g**2 / (2.0 * rho_d_prev)
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
    rho_d_prev = dual_density(grid, state.rho_prev)
    g = pressure_gradient(state.p, grid)
    ek = 0.5 * rho_d_prev * state.u**2 + state.dt**2 * g**2 / (2.0 * rho_d_prev)
    e_kin = np.sum(grid.dual_volumes[1:-1] * ek[1:-1])
    return float(e_int + e_kin)


def _upwind_cells(u, n):
    """Index of the upwind cell for each interior face, given face velocities."""
    j = np.arange(1, n)
    return np.where(u[1:n] >= 0.0, j - 1, j)


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
    is linear in rho (``density``) and h_s = p / (kappa rho).
    """

    def __init__(self, state, u_tilde, sgp, dt, source):
        grid = state.grid
        self.n = grid.n_cells
        self.h = grid.cell_volumes
        self.hdt = grid.cell_volumes / dt
        self.kappa = (state.mixture.gamma - 1.0) / state.mixture.gamma
        rho_d_n = dual_density(grid, state.rho)
        j = np.arange(1, self.n)
        self.a_face = u_tilde[j] + dt / rho_d_n[j] * sgp[j]
        self.b_face = dt / (rho_d_n[j] * grid.dual_volumes[j])
        self.rho_n = state.rho
        self.p_n = state.p
        self.rhoh_n = state.rho * state.h_s
        self.source = source
        # the terms of the enthalpy balance that do not depend on p
        self.hs_known = self.hdt * (self.p_n - self.rhoh_n) - self.h * source
        hdt0 = float(self.hdt[0])
        self.mass_scale = hdt0 * max(float(np.max(np.abs(state.rho))), 1e-300)
        self.hs_scale = hdt0 * max(float(np.max(np.abs(self.rhoh_n))), 1e-300)

    def velocity(self, p):
        u = np.zeros(self.n + 1)
        u[1:-1] = self.a_face + self.b_face * (p[:-1] - p[1:])
        return u

    def residual(self, p):
        """Enthalpy residual at p, plus the face quantities ``jacobian`` reuses."""
        dp = p[:-1] - p[1:]
        u = self.a_face + self.b_face * dp  # interior faces
        pos = u >= 0.0  # the left cell is upwind
        p_up = np.where(pos, p[:-1], p[1:])
        Fh = u * p_up / self.kappa
        r = self.hdt * (p / self.kappa - p) + self.hs_known
        r[:-1] += Fh
        r[1:] -= Fh
        # -(u . grad p) with upwind face pressures: the term of the upwind
        # cell vanishes identically (p_sigma = p_K there), so the whole
        # contribution u_j (p_{j-1} - p_j) lands in the downwind cell
        udp = u * dp
        r[1:] += np.where(pos, udp, 0.0)
        r[:-1] += np.where(pos, 0.0, udp)
        return r, (dp, u, pos, p_up)

    def norm(self, r):
        return float(np.max(np.abs(r))) / self.hs_scale

    def jacobian(self, lin):
        """Tridiagonal Jacobian at the point of ``lin``, in band storage.

        Row 0 holds the upper diagonal (d r_i / d p_{i+1} at column i+1),
        row 1 the diagonal, row 2 the lower diagonal (d r_{i+1} / d p_i at
        column i); both off-diagonals are indexed by interior face.
        """
        dp, u, pos, p_up = lin
        neg = ~pos
        b = self.b_face
        # d(u p_up) / d(p_L, p_R) and d(u (p_L - p_R)) / d(p_L) = -.../d(p_R)
        dflux_l = (b * p_up + u * pos) / self.kappa
        dflux_r = (u * neg - b * p_up) / self.kappa
        dwork = u + b * dp
        ab = np.empty((3, self.n))
        ab[0, 0] = 0.0
        ab[0, 1:] = dflux_r - neg * dwork
        ab[1] = self.hdt * (1.0 / self.kappa - 1.0)
        ab[1, :-1] += dflux_l + neg * dwork
        ab[1, 1:] -= dflux_r + pos * dwork
        ab[2, :-1] = pos * dwork - dflux_l
        ab[2, -1] = 0.0
        return ab

    def newton_step(self, r, lin):
        """Newton update for the residual r at the point of ``lin``.

        Returns None when the tridiagonal solve fails or is not finite.
        """
        try:
            delta = solve_banded((1, 1), self.jacobian(lin), -r,
                                 overwrite_ab=True, overwrite_b=True,
                                 check_finite=False)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        return delta

    def density(self, u):
        """rho from the mass balance with upwind fluxes at face velocities u."""
        uin = u[1:-1]
        pos = uin >= 0.0
        diag = self.hdt.copy()
        diag[:-1] += np.where(pos, uin, 0.0)
        diag[1:] -= np.where(pos, 0.0, uin)
        upper = np.where(pos, 0.0, uin)
        lower = np.where(pos, -uin, 0.0)
        return dgtsv(lower, diag, upper, self.hdt * self.rho_n,
                     overwrite_dl=1, overwrite_d=1, overwrite_du=1)[3]

    def mass_norm(self, rho, flux):
        r = self.hdt * (rho - self.rho_n) + flux[1:] - flux[:-1]
        return float(np.max(np.abs(r))) / self.mass_scale


def _fixed_point(sys_, p, cfg):
    """Segregated fallback: u(p) -> mass solve -> enthalpy solve -> EOS.

    Converged when the under-relaxed pressure meets the tolerance of the
    reduced balance; returns that pressure.
    """
    n = sys_.n
    p = np.array(p)
    omega = cfg.under_relaxation
    for it in range(10 * cfg.max_iterations):
        u = sys_.velocity(p)
        uin = u[1:n]
        rho = sys_.density(u)
        up = _upwind_cells(u, n)
        F = np.zeros(n + 1)
        F[1:n] = uin * rho[up]
        # enthalpy: tridiagonal in h with rho, u, p frozen
        diag = sys_.hdt * rho
        lower = np.zeros(n)
        upper = np.zeros(n)
        FR = F[1:n]
        diag[:-1] += np.maximum(FR, 0.0)
        upper[:-1] += np.minimum(FR, 0.0)
        diag[1:] -= np.minimum(FR, 0.0)
        lower[1:] -= np.maximum(FR, 0.0)
        dn = np.arange(1, n) + np.arange(0, n - 1) - up
        updp = np.zeros(n)
        np.add.at(updp, dn, uin * (p[:-1] - p[1:]))
        rhs = (
            sys_.hdt * sys_.rhoh_n
            + sys_.hdt * (p - sys_.p_n)
            - updp
            + sys_.h * sys_.source
        )
        hs = _tridiag(lower, diag, upper, rhs)
        p = p + omega * (sys_.kappa * rho * hs - p)
        if not np.all(np.isfinite(p)):
            break
        if sys_.norm(sys_.residual(p)[0]) < cfg.nonlinear_tol:
            return p, it + 1, True
    return p, 10 * cfg.max_iterations, False


def _tridiag(lower, diag, upper, rhs):
    """Solve a tridiagonal system; ``lower[i]`` multiplies x[i-1] in row i,
    ``upper[i]`` multiplies x[i+1].  Non-finite input gives non-finite
    output rather than an exception, so a diverging sweep ends as a stall.
    """
    return dgtsv(lower[1:], diag, upper[:-1], rhs)[3]


def correction_solve(state, u_tilde, sgp, dt, source, cfg):
    """Solve the correction system for (u, rho, h_s, p) at step end.

    Semismooth Newton on the N pressures of the reduced enthalpy balance
    (see ``_CorrectionSystem``), starting from p^n: upwind switches freeze
    per iteration, each step is one tridiagonal banded solve, and a line
    step halves until p stays positive.  Once the tolerance is met, one
    more step takes the residual down to round-off, so that the energy
    drift does not build up over a run.  The velocity then follows from p,
    rho from one linear upwind mass solve (positive, since its matrix is an
    M-matrix) and h_s = p / (kappa rho) from the EOS.  Falls back to an
    under-relaxed segregated sweep if Newton stalls; raises StepFailure if
    neither converges.  The reported residual is the larger of the scaled
    enthalpy and mass residuals.
    """
    sys_ = _CorrectionSystem(state, u_tilde, sgp, dt, source)
    p = np.array(state.p, dtype=float)
    used_fallback = False
    iterations = 0
    converged = False
    for it in range(cfg.max_iterations + 1):
        r, lin = sys_.residual(p)
        res = sys_.norm(r)
        if res < cfg.nonlinear_tol:
            converged = True
            iterations = it
            break
        if it == cfg.max_iterations:
            break
        delta = sys_.newton_step(r, lin)
        if delta is None:
            break
        alpha = 1.0
        while alpha > 1e-6:
            if np.min(p + alpha * delta) > 0.0:
                break
            alpha *= 0.5
        p = p + alpha * delta
    if converged and iterations:
        delta = sys_.newton_step(r, lin)
        iterations += 1
        if delta is not None:
            p_next = p + delta
            res_next = sys_.norm(sys_.residual(p_next)[0])
            if res_next < res and np.min(p_next) > 0.0:
                p, res = p_next, res_next
    if not converged:
        p, extra, converged = _fixed_point(sys_, p, cfg)
        used_fallback = True
        iterations = cfg.max_iterations + extra
        res = sys_.norm(sys_.residual(p)[0])
    if not converged:
        raise StepFailure(
            f"correction solve stalled at residual {res:.3e} "
            f"(tolerance {cfg.nonlinear_tol:.1e})"
        )
    u = sys_.velocity(p)
    rho = sys_.density(u)
    hs = p / (sys_.kappa * rho)
    flux = primal_mass_flux(rho, u)
    grad_p = pressure_gradient(p, state.grid)
    return CorrectionResult(
        u=u, rho=rho, h_s=hs, p=p, grad_p=grad_p, flux=flux,
        iterations=iterations, residual=max(res, sys_.mass_norm(rho, flux)),
        used_fallback=used_fallback,
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
    u_tilde = predict_velocity(state, dual_flux, sgp, dt)
    R = kinetic_residuals(state, u_tilde, dt)
    S = compensation_source(R, grid)
    corr = correction_solve(state, u_tilde, sgp, dt, omega_theta + S, cfg)
    return EulerResult(
        u=corr.u, rho=corr.rho, h_s=corr.h_s, p=corr.p, grad_p=corr.grad_p,
        flux=corr.flux, u_tilde=u_tilde, kinetic_residual=R, source=S,
        iterations=corr.iterations, residual=corr.residual,
        used_fallback=corr.used_fallback,
    )


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
