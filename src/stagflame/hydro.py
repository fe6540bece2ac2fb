"""Segregated pressure-correction flow step on the staggered grid.

One flow step builds the correction system, whose constructor rescales the
old pressure gradient, predicts face velocities with it (implicit in the
convection) and measures the kinetic energy the prediction dissipated, then
solves the coupled mass/enthalpy/EOS system for the end-of-step density,
sensible enthalpy and pressure.  The velocity is eliminated through the
correction relation and the cell-local EOS p = kappa rho h_s is substituted,
which leaves an enthalpy balance in the pressure alone: Newton runs on the N
cell pressures with a tridiagonal Jacobian (each step p - J^-1 r, J^-1 r
solved in the place of the residual r), then one linear mass solve gives
the density and the EOS the enthalpy.  Newton is the only nonlinear path: a
step it cannot converge ends in a StepFailure that says why it stopped.
The pieces are arranged so that a discrete total energy - sensible plus
chemical plus kinetic including a pressure-gradient storage term - is
conserved to the nonlinear solver tolerance.  That tolerance and Newton's
iteration cap are module constants; no run has needed other values.

A flow step and the energy audit read what they need of a time level -
its step size, mass fluxes, dual densities, pressure gradient and e_s -
from the level itself (``FieldState``), which builds each of them once.

The step's kernels work in place: a call may overwrite the temporaries it
made itself (``out=``, augmented assignment), and ``newton_step`` the
residual it is handed, keeping the operations of the formula its comment
gives in their order, so that results stay bitwise those of the plain
expression.  Nothing writes into an array of a level or into one that a
``FlowResult`` holds.  The one buffer an object keeps is the
correction solve's Jacobian band, allocated once per solve.  A solve holds
one linearisation at a time: each is let go once the Jacobian is built from
it, and of the one at the converged iterate (or at the closing step's,
when that is kept) only the face velocities are kept.

The prediction and every Newton step are tridiagonal solves through
``solve_banded``, imported from ``stagflame.linalg`` under scipy's name and
argument order; the benchmark's span recorder counts and times them by
wrapping this module's ``solve_banded`` attribute, so the name must stay.
The linear mass solve (``upwind_mass_solve``, on ``linalg.upwind_band`` of
the face velocities) goes through ``linalg``'s own ``solve_banded``, not
this module's, and is not counted with them.
"""

from dataclasses import dataclass

import numpy as np

from .chemistry import species_faces
from .errors import StepFailure
from .linalg import solve_banded, upwind_mass_solve
from .thermo import chemical_enthalpy
from .transport import (dual_mass_flux, face_stencil, face_values,
                        primal_mass_flux)

# Newton meets the correction solve when the scaled residual (each equation
# divided by its natural size) drops below _NONLINEAR_TOL; a solve that has
# not after _MAX_ITERATIONS iterations ends the step with a StepFailure.
_NONLINEAR_TOL = 1e-12
_MAX_ITERATIONS = 100
# Newton stagnates when the residual has not gone 10% below its minimum for
# 12 iterations: in 1200 random one-step states no converging solve went over
# 9 without such a drop, and each stalled one stopped within 19, so the
# iteration cap never binds.
_STAGNATION_DROP = 0.9
_STAGNATION_ITERATIONS = 12


@dataclass
class FlowResult:
    """Everything one flow step produces: the end-of-step fields of the
    correction solve (velocities at faces), its Newton record, and the
    kinetic energy the prediction dissipated."""

    u: np.ndarray
    rho: np.ndarray
    h_s: np.ndarray
    p: np.ndarray
    flux: np.ndarray
    iterations: int
    residual: float
    kinetic_residual: np.ndarray
    # always False, since Newton is the only path; kept because the
    # benchmark's span recorder still reads it
    used_fallback = False


def scale_pressure_gradient(state):
    """The level's gradient rescaled by sqrt(rho^n_D / rho^{n-1}_D).

    This is the exact factor that lets the pressure-gradient storage term of
    the kinetic energy telescope between steps.
    """
    return np.sqrt(state.rho_d / state.rho_d_prev) * state.grad_p


def predict_velocity(state, sgp):
    """Implicit momentum prediction with the rescaled old pressure gradient.

    Solves, on every interior face, the dual-cell momentum balance with
    centred face velocities, the dual fluxes of ``state.flux`` and the
    frozen gradient ``sgp``; wall velocities stay zero, and the wall entries
    of ``state.u`` are never read.  Returns the full face array.  The band
    and the right hand side are not scanned for NaN or inf: a non-finite
    input ends the step in the correction solve's finiteness test.
    """
    n = state.grid.n_cells
    dv = state.grid.dual_volumes[1:-1]
    hdt = dv / state.dt
    half = 0.5 * dual_mass_flux(state.flux)  # centred convection
    ab = np.empty((3, n - 1))
    ab[0, 0] = 0.0
    ab[0, 1:] = half[1:-1]
    # diagonal: hdt rho^n_D + (half_right - half_left)
    diag = np.subtract(half[1:], half[:-1], out=ab[1])
    diag += hdt * state.rho_d[1:-1]
    np.negative(half[1:-1], out=ab[2, :-1])
    ab[2, -1] = 0.0
    # rhs = hdt rho^{n-1}_D u^n - |D| sgp
    rhs = hdt * state.rho_d_prev[1:-1]
    rhs *= state.u[1:-1]
    rhs -= np.multiply(dv, sgp[1:-1], out=hdt)
    u_tilde = np.zeros(n + 1)
    u_tilde[1:n] = solve_banded((1, 1), ab, rhs, overwrite_ab=True,
                                overwrite_b=True)
    return u_tilde


def kinetic_residuals(state, u_tilde):
    """Kinetic energy dissipated by the prediction on each dual cell.

    R_sigma = |D_sigma| rho^{n-1}_D (u_tilde - u^n)^2 / (2 dt), with
    rho^{n-1}_D the level's previous dual density; walls have none.
    """
    R = state.grid.dual_volumes * state.rho_d_prev
    R /= 2.0 * state.dt
    du = np.subtract(u_tilde, state.u)
    R *= np.square(du, out=du)
    R[0] = 0.0
    R[-1] = 0.0
    return R


def compensation_source(R, grid):
    """Distribute the prediction residuals back to the cells.

    Each interior face residual is split evenly between its two cells; a
    boundary face residual goes entirely to its one cell.  The total is
    preserved: sum |K| S_K = sum R_sigma.
    """
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
    rho_d_prev = state.rho_d_prev
    # 0.5 rho_D u^2 + dt^2 grad_p^2 / (2 rho_D)
    ek = 0.5 * rho_d_prev
    ek *= np.square(state.u)
    store = np.square(state.grad_p)
    store *= state.dt**2
    store /= 2.0 * rho_d_prev
    ek += store
    return ek


def cell_kinetic_energy(state):
    """Cell kinetic energy: half the dual-volume-weighted face values."""
    grid = state.grid
    ek = face_kinetic_energy(state)
    dv = grid.dual_volumes
    return (dv[:-1] * ek[:-1] + dv[1:] * ek[1:]) / (2.0 * grid.cell_volumes)


def internal_energy(state):
    """Cell internal energy per unit volume, rho e_s + rho^{n-1} hc: the
    chemical part is weighted by the previous-level density, matching the
    two-level species balance.  Returns a new array."""
    hc = chemical_enthalpy(state.mixture, state.y_F, state.y_O, state.y_N,
                           state.y_P)
    hc *= state.rho_prev
    hc += state.rho * state.e_s
    return hc


def total_energy(state):
    """Discrete total energy of a state (J per unit cross-section).

    The ``internal_energy`` over the cells plus kinetic energy over the
    interior dual cells, including the pressure-gradient storage term.
    Exactly conserved by the full step up to the nonlinear solver tolerance.
    """
    grid = state.grid
    e = internal_energy(state)
    e *= grid.cell_volumes
    e_int = e.sum()
    ek = face_kinetic_energy(state)[1:-1]
    ek *= grid.dual_volumes[1:-1]
    e_kin = ek.sum()
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
    is linear in rho and h_s = p / (kappa rho).  The constructor builds all
    that does not depend on p: the prediction u_tilde with the rescaled
    gradient sgp (both freed on return), its kinetic residuals ``R``, a, b
    and S, the heat release plus the ``compensation_source`` of R.
    """

    def __init__(self, state, omega_theta):
        grid = state.grid
        dt = state.dt
        self.state = state
        self.n = grid.n_cells
        sgp = scale_pressure_gradient(state)
        u_tilde = predict_velocity(state, sgp)
        self.R = kinetic_residuals(state, u_tilde)
        source = omega_theta + compensation_source(self.R, grid)
        self.hdt = grid.cell_volumes / dt
        self.kappa = (state.mixture.gamma - 1.0) / state.mixture.gamma
        self.inv_kappa = 1.0 / self.kappa
        rho_d = state.rho_d[1:-1]
        # a = u_tilde + dt / rho_D sgp
        self.a_face = dt / rho_d
        self.a_face *= sgp[1:-1]
        self.a_face += u_tilde[1:-1]
        # b = dt / (rho_D |D|)
        b_face = rho_d * grid.dual_volumes[1:-1]
        self.b_face = np.divide(dt, b_face, out=b_face)
        self.minus_b_kappa = np.negative(self.b_face)
        self.minus_b_kappa *= self.inv_kappa
        # the Jacobian's diagonal before the face terms: the storage term
        self.jac_diag = self.hdt * (self.inv_kappa - 1.0)
        # the one buffer of the solve: ``jacobian`` fills it, and the
        # closing step reuses the last Jacobian from it
        self.band = np.empty((3, self.n))
        self.band[0, 0] = 0.0
        self.band[2, -1] = 0.0
        rhoh_n = state.rho * state.h_s
        # the terms of the enthalpy balance that do not depend on p:
        # hdt (p^n - (rho h_s)^n) - |K| S
        self.hs_known = np.subtract(state.p, rhoh_n)
        self.hs_known *= self.hdt
        self.hs_known -= grid.cell_volumes * source
        hdt0 = float(self.hdt[0])
        self.mass_scale = hdt0 * max(float(np.abs(state.rho).max()), 1e-300)
        self.hs_scale = hdt0 * max(float(np.abs(rhoh_n).max()), 1e-300)

    def residual(self, p):
        """Enthalpy residual at p, plus the face quantities ``jacobian`` reuses.

        The storage term keeps ``p / kappa - p``: the rounded constant
        ``1 / kappa - 1`` would bias every step's energy balance.  Each call
        returns arrays of its own.
        """
        dp = p[:-1] - p[1:]
        b_dp = self.b_face * dp
        u = self.a_face + b_dp  # interior faces
        pos = u >= 0.0  # the left cell is upwind
        p_up = np.where(pos, p[:-1], p[1:])
        Fh = u * p_up
        Fh /= self.kappa  # u p_up / kappa
        # -(u . grad p) with upwind face pressures: the term of the upwind
        # cell vanishes identically (p_sigma = p_K there), so the whole
        # contribution u_j (p_{j-1} - p_j) lands in the downwind cell
        udp = np.multiply(u, dp, out=dp)
        work_right = np.where(pos, udp, 0.0)
        # r = hdt (p / kappa - p) + hs_known
        r = p / self.kappa
        r -= p
        r *= self.hdt
        r += self.hs_known
        # left cell: Fh + (udp - work_right); right cell: work_right - Fh
        udp -= work_right
        udp += Fh
        r[:-1] += udp
        work_right -= Fh
        r[1:] += work_right
        return r, (b_dp, u, pos, p_up)

    def norm(self, r):
        return float(np.abs(r).max()) / self.hs_scale

    def jacobian(self, lin):
        """Tridiagonal Jacobian at the point of ``lin``, in band storage.

        Row 0 holds the upper diagonal (d r_i / d p_{i+1} at column i+1),
        row 1 the diagonal, row 2 the lower diagonal (d r_{i+1} / d p_i at
        column i); both off-diagonals are indexed by interior face.  With
        w = d(u dp)/d p_L - u / kappa, the face terms are
        upper = -b p_up / kappa - [u < 0] w and
        lower = -b p_up / kappa + [u >= 0] w, and each diagonal entry
        follows from them: d(u dp)/d p_L - lower on the left cell and
        -(upper + d(u dp)/d p_L) on the right one.  The band is the
        system's own (``band``), filled anew by each call and returned.
        """
        b_dp, u, pos, p_up = lin
        ab = self.band
        upper, diag, lower = ab[0, 1:], ab[1], ab[2, :-1]
        dwork = u + b_dp  # d(u dp) / d p_L = -d(u dp) / d p_R
        w = np.multiply(u, self.inv_kappa)
        np.subtract(dwork, w, out=w)  # w = dwork - u / kappa
        w_pos = np.where(pos, w, 0.0)
        m = np.multiply(self.minus_b_kappa, p_up, out=lower)
        w -= w_pos
        np.subtract(m, w, out=upper)  # upper = m - (w - w_pos)
        lower += w_pos  # lower = m + w_pos
        np.copyto(diag, self.jac_diag)
        np.add(diag[:-1], np.subtract(dwork, lower, out=w), out=diag[:-1])
        np.subtract(diag[1:], np.add(upper, dwork, out=w), out=diag[1:])
        return ab

    def newton_step(self, r):
        """Solve J delta = r with the Jacobian in ``band``: p - delta is
        the Newton update.

        ``r`` is overwritten (delta is solved in its place); ``band`` is
        left intact, so a later step can reuse it.  Returns ``(delta,
        None)``, or ``(None, why)`` when there is no usable step.
        """
        try:
            delta = solve_banded((1, 1), self.band, r, overwrite_b=True)
        except np.linalg.LinAlgError:
            return None, "singular Jacobian"
        if not np.isfinite(delta).all():
            return None, "non-finite Newton step"
        return delta, None

    def closing_step(self, p, r, res):
        """One more Newton step from the converged ``p``, with the Jacobian
        in ``band`` and ``r`` the residual at ``p`` (overwritten).

        Returns the new iterate, its scaled residual and its interior face
        velocities (the residual's a + b (p_L - p_R)), or None when there is
        no usable step, or the step does not lower the residual below
        ``res`` or leaves a pressure non-positive.  The step's residual and
        linearisation are freed on return.
        """
        delta, _ = self.newton_step(r)
        if delta is None:
            return None
        p_next = np.subtract(p, delta, out=delta)
        r_next, lin = self.residual(p_next)
        res_next = self.norm(r_next)
        if res_next < res and p_next.min() > 0.0:
            return p_next, res_next, lin[1]
        return None

    def mass_norm(self, rho, flux):
        # hdt (rho - rho^n) + F_right - F_left
        r = rho - self.state.rho
        r *= self.hdt
        r += flux[1:]
        r -= flux[:-1]
        return float(np.abs(r, out=r).max()) / self.mass_scale


def correction_solve(system):
    """Solve the correction ``system`` for (u, rho, h_s, p) at step end.

    The system carries all the solve reads: its level, the coefficients
    built from the prediction, and the prediction's kinetic residuals R,
    which the ``FlowResult`` holds for the energy audit.  Semismooth Newton
    on the N pressures of the reduced enthalpy balance (see
    ``_CorrectionSystem``), starting from p^n: upwind switches freeze per
    iteration, each step is one tridiagonal banded solve, and a line step
    halves until p stays positive.  Once the tolerance is met, one more
    step with the last iteration's Jacobian takes the residual down to
    round-off, so that the energy drift does not build up over a run; it is
    kept only if the residual drops.  The interior velocities are the
    u = a + b (p_L - p_R) of the residual evaluated at the kept p (the
    closing step's when it is kept), zero at the walls; rho then follows
    from one linear upwind mass solve (positive, since its matrix is an
    M-matrix) and h_s = p / (kappa rho) from the EOS.  Newton is the only
    path: when it reaches ``_MAX_ITERATIONS``, stagnates, meets a singular
    Jacobian or takes a non-finite step, the solve raises StepFailure naming
    the reason and the iteration count.  The reported residual is the larger
    of the scaled enthalpy and mass residuals.

    Besides the system's per-solve arrays (the band among them), a solve
    holds the iterate p, the line step's spare buffer and one residual
    with its linearisation (``residual``'s face quantities), which
    it drops once the Jacobian is built from it.  Once Newton converges,
    the spare buffer and the last Newton step are freed and only the face
    velocities of the last linearisation are kept; the closing step
    replaces them by its own iterate's only when the step is kept.  So at
    most one set of residual and Jacobian temporaries is live.
    """
    state = system.state
    p, r, res, u_face, it = _newton(system, np.array(state.p, dtype=float))
    if it:  # the closing step
        it += 1
        closed = system.closing_step(p, r, res)
        if closed is not None:
            p, res, u_face = closed
    u = np.zeros(system.n + 1)
    u[1:-1] = u_face
    rho = upwind_mass_solve(state.grid, state.rho, u, state.dt)
    flux = primal_mass_flux(rho, u)
    h_s = rho * system.kappa
    np.divide(p, h_s, out=h_s)  # h_s = p / (kappa rho)
    return FlowResult(
        u=u, rho=rho, h_s=h_s, p=p, flux=flux,
        iterations=it, residual=max(res, system.mass_norm(rho, flux)),
        kinetic_residual=system.R,
    )


def _newton(sys_, p):
    """Newton iterations on ``sys_`` from the pressures ``p`` (a buffer the
    iterations overwrite) until the scaled residual meets the tolerance.

    Returns ``(p, r, res, u, it)`` of that iterate: its residual and scaled
    residual, its interior face velocities a + b (p_L - p_R) and the
    iteration count; the rest of its linearisation, the spare buffer and
    the last Newton step are freed on return.  Raises StepFailure when no
    iterate meets the tolerance.
    """
    spare = np.empty_like(p)  # the line step's trial, swapped with p
    why = "iteration cap reached"
    best, best_it = np.inf, 0
    for it in range(_MAX_ITERATIONS + 1):
        r, lin = sys_.residual(p)
        res = sys_.norm(r)
        if res < _NONLINEAR_TOL:
            return p, r, res, lin[1], it
        if it == _MAX_ITERATIONS:
            break
        if res < _STAGNATION_DROP * best:
            best, best_it = res, it
        elif it - best_it >= _STAGNATION_ITERATIONS:
            why = "stagnated"
            break
        sys_.jacobian(lin)
        del lin  # the band holds all the Newton step reads of it
        delta, stop = sys_.newton_step(r)
        if stop:
            why = stop
            break
        alpha = 1.0
        trial = np.subtract(p, delta, out=spare)
        while alpha > 1e-6 and trial.min() <= 0.0:
            alpha *= 0.5
            np.multiply(alpha, delta, out=trial)
            np.subtract(p, trial, out=trial)  # p - alpha delta
        p, spare = trial, p
    raise StepFailure(
        f"correction solve stalled at residual {res:.3e} "
        f"(tolerance {_NONLINEAR_TOL:.1e}): {why} after {it} Newton "
        f"iterations"
    )


@np.errstate(over="ignore", invalid="ignore")
def euler_step(state, omega_theta):
    """One full flow step from an accepted state (chemistry already done).

    Returns the ``FlowResult``: the corrected fields plus the prediction's
    kinetic residuals, built from the state's own step size, fluxes, dual
    densities and pressure gradient.  A u or p that overflows or turns
    non-finite goes on as inf or NaN without a warning, and the correction
    solve's finiteness test ends the step.
    """
    return correction_solve(_CorrectionSystem(state, omega_theta))


def internal_energy_residual(state_n, state_next, chem, flow):
    """Residual of the implied internal-energy balance of one accepted step.

    ``chem`` and ``flow`` are the step's stage results (``advance``'s info).
    The sensible part inherits the correction-solve residual; the chemical
    part cancels against the heat release exactly, since the face values
    are the ones the chemistry step convected (``species_faces``), which
    leaves the kinetic residuals' ``compensation_source``.  Returns the
    per-cell residual of the balance (per unit volume and time).
    """
    faces = species_faces(state_n, chem)
    grid = state_next.grid
    dt = state_next.dt
    es_face = face_values(state_next.e_s, face_stencil(
        state_next.flux, "upwind", state_next.rho, dt, grid))
    sens_flux = state_next.flux * es_face
    hc_face = chemical_enthalpy(state_next.mixture, faces["y_F"], faces["y_O"],
                                faces["y_N"], faces["y_P"])
    chem_flux = state_n.flux * hc_face
    div = (sens_flux[1:] - sens_flux[:-1] + chem_flux[1:] - chem_flux[:-1])
    div /= grid.cell_volumes
    p_div_u = state_next.p * (state_next.u[1:] - state_next.u[:-1]) / grid.cell_volumes
    S = compensation_source(flow.kinetic_residual, grid)
    return ((internal_energy(state_next) - internal_energy(state_n)) / dt
            + div + p_div_u - S)
