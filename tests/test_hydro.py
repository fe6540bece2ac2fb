import gc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagflame import hydro
from stagflame.chemistry import chemistry_step
from stagflame.errors import StepFailure
from stagflame.grid import build_uniform_grid
from stagflame.harness import CaseConfig, advance, initialize_case, run_case
from stagflame.hydro import (
    _CorrectionSystem,
    cell_kinetic_energy,
    compensation_source,
    correction_solve,
    euler_step,
    internal_energy_residual,
    kinetic_residuals,
    predict_velocity,
    scale_pressure_gradient,
    total_energy,
)
from stagflame.thermo import chemical_enthalpy
from stagflame.transport import (
    SCHEMES,
    dual_density,
    dual_mass_flux,
    pressure_gradient,
    primal_mass_flux,
)
from helpers import admissible_states, make_state, quiescent_state


def short_benchmark(n_cells=60, steps=2, **kw):
    cfg = CaseConfig(n_cells=n_cells, **kw)
    setup = initialize_case(cfg)
    return replace(cfg, t_end=cfg.t_start + steps * setup.state.dt)


# ---------------------------------------------------------------------------
# gradient and duality


def test_pressure_gradient_walls_are_zero():
    grid = build_uniform_grid(5, 1.0)
    p = np.array([1.0, 2.0, 4.0, 4.0, 1.0])
    g = pressure_gradient(p, grid)
    assert g[0] == 0.0 and g[-1] == 0.0
    assert g[1] == pytest.approx((2.0 - 1.0) / grid.h)
    assert g[3] == pytest.approx(0.0)


def test_gradient_divergence_duality():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(5, 200))
        grid = build_uniform_grid(n, float(rng.uniform(0.5, 4.0)))
        p = rng.uniform(0.1, 10.0, n)
        u = np.zeros(n + 1)
        u[1:-1] = rng.standard_normal(n - 1)
        g = pressure_gradient(p, grid)
        div = (u[1:] - u[:-1]) / grid.cell_volumes
        lhs = np.sum(grid.cell_volumes * p * div)
        rhs = -np.sum(grid.dual_volumes * u * g)
        scale = np.sum(np.abs(grid.cell_volumes * p * div)) + 1e-300
        assert abs(lhs - rhs) < 1e-12 * scale


def test_scale_pressure_gradient_factor():
    level = SimpleNamespace(grad_p=np.array([0.0, 2.0, 0.0]),
                            rho_d=np.full(3, 4.0), rho_d_prev=np.full(3, 1.0))
    out = scale_pressure_gradient(level)
    assert np.allclose(out, [0.0, 4.0, 0.0])


# ---------------------------------------------------------------------------
# prediction


def test_prediction_satisfies_momentum_balance():
    setup = initialize_case(CaseConfig(n_cells=80))
    state = setup.state
    dt = state.dt
    grid = state.grid
    F = state.flux
    Fd = dual_mass_flux(F)
    rho_d_n = state.rho_d
    rho_d_nm1 = state.rho_d_prev
    sgp = scale_pressure_gradient(state)
    u_t = predict_velocity(state, sgp)
    assert u_t[0] == 0.0 and u_t[-1] == 0.0
    # re-assemble the dual-cell balance with centred face velocities
    j = np.arange(1, grid.n_cells)
    hdt = grid.dual_volumes / dt
    conv = (Fd[j] * 0.5 * (u_t[j] + u_t[j + 1])
            - Fd[j - 1] * 0.5 * (u_t[j - 1] + u_t[j]))
    res = (hdt[j] * (rho_d_n[j] * u_t[j] - rho_d_nm1[j] * state.u[j])
           + conv + grid.dual_volumes[j] * sgp[j])
    scale = np.max(np.abs(hdt[j] * rho_d_n[j] * u_t[j])) + np.max(np.abs(sgp))
    assert np.max(np.abs(res)) < 1e-10 * scale


def test_kinetic_residuals_form():
    setup = initialize_case(CaseConfig(n_cells=20))
    state = setup.state
    u_t = state.u + 0.1
    u_t[0] = 0.0
    u_t[-1] = 0.0
    rho_d = state.rho_d_prev
    R = kinetic_residuals(state, u_t)
    assert R[0] == 0.0 and R[-1] == 0.0
    j = 5
    want = state.grid.dual_volumes[j] * rho_d[j] / (2 * state.dt) * 0.1**2
    assert R[j] == pytest.approx(want, rel=1e-12)
    assert np.all(R >= 0.0)


def test_compensation_source_splits_residuals():
    grid = build_uniform_grid(4, 4.0)  # h = 1
    R = np.zeros(5)
    R[2] = 2.0  # interior face between cells 1 and 2
    S = compensation_source(R, grid)
    assert np.allclose(S, [0.0, 1.0, 1.0, 0.0])
    assert np.sum(grid.cell_volumes * S) == pytest.approx(np.sum(R))
    # boundary residuals go entirely to their single cell
    R = np.zeros(5)
    R[0] = 3.0
    S = compensation_source(R, grid)
    assert np.allclose(S, [3.0, 0.0, 0.0, 0.0])
    assert np.sum(grid.cell_volumes * S) == pytest.approx(3.0)


def test_cell_kinetic_energy_uniform_interior():
    state = quiescent_state(n=12, rho_left=0.9, rho_right=0.9)
    u = state.u.copy()
    u[1:-1] = 3.0
    state = replace(state, u=u)
    ke = cell_kinetic_energy(state)
    # away from the walls every face carries rho/2 u^2 and uniform pressure
    inner = slice(1, -1)
    assert np.allclose(ke[inner], 0.5 * 0.9 * 9.0, rtol=1e-10)
    # wall faces carry nothing (u = 0 and the gradient vanishes there), so
    # the cell split re-sums to the dual total exactly
    rho_d = dual_density(state.grid, state.rho_prev)
    g = pressure_gradient(state.p, state.grid)
    ek = 0.5 * rho_d * state.u**2 + state.dt**2 * g**2 / (2 * rho_d)
    total = np.sum(state.grid.dual_volumes[1:-1] * ek[1:-1])
    assert np.sum(state.grid.cell_volumes * ke) == pytest.approx(total, rel=1e-12)


# ---------------------------------------------------------------------------
# correction solve and full step


def test_correction_solve_converges_on_benchmark_step():
    setup = initialize_case(CaseConfig(n_cells=120))
    state = setup.state
    result = euler_step(state, np.zeros(state.grid.n_cells))
    # the closing Newton step, with the last iteration's Jacobian, takes the
    # residual from below the 1e-12 tolerance down to round-off
    assert result.residual < 1e-14
    assert result.iterations <= 15
    assert np.min(result.rho) > 0.0
    assert np.min(result.h_s) > 0.0
    assert np.min(result.p) > 0.0
    assert result.u[0] == 0.0 and result.u[-1] == 0.0
    # the corrected fields satisfy the discrete mass balance
    hdt = state.grid.cell_volumes / state.dt
    res = hdt * (result.rho - state.rho) + result.flux[1:] - result.flux[:-1]
    assert np.max(np.abs(res)) < 1e-9 * np.max(np.abs(hdt * result.rho))
    # and the equation of state
    gamma = state.mixture.gamma
    eos = result.p - (gamma - 1.0) / gamma * result.rho * result.h_s
    assert np.max(np.abs(eos)) < 1e-9 * np.max(result.p)
    # and the sensible-enthalpy balance, assembled face by face: upwind
    # convection of rho h_s, and -(u . grad p) with upwind face pressures,
    # which leaves u_j (p_{j-1} - p_j) in the downwind cell of face j
    n = state.grid.n_cells
    res = (hdt * (result.rho * result.h_s - state.rho * state.h_s)
           - hdt * (result.p - state.p)
           - state.grid.cell_volumes
           * compensation_source(result.kinetic_residual, state.grid))
    for j in range(1, n):
        left, right = j - 1, j
        up, down = (left, right) if result.u[j] >= 0.0 else (right, left)
        conv = result.flux[j] * result.h_s[up]
        res[left] += conv
        res[right] -= conv
        res[down] += result.u[j] * (result.p[left] - result.p[right])
    scale = np.max(np.abs(hdt * result.rho * result.h_s))
    assert np.max(np.abs(res)) < 1e-12 * scale
    # at 40 cells the last Newton iteration stops near 8e-13, so here only
    # the closing step brings the residual down to round-off
    state = initialize_case(CaseConfig(n_cells=40)).state
    result = euler_step(state, np.zeros(40))
    assert result.residual < 1e-14


def _correction_system(state):
    """The correction system of the first step from ``state`` without heat
    release, and the (u_t, sgp, source) its constructor built, recomputed."""
    omega = np.zeros(state.grid.n_cells)
    system = _CorrectionSystem(state, omega)
    sgp = scale_pressure_gradient(state)
    u_t = predict_velocity(state, sgp)
    R = kinetic_residuals(state, u_t)
    assert _same_bits(system.R, R)
    source = omega + compensation_source(R, state.grid)
    return system, (u_t, sgp, source)


def _benchmark_correction_system(n_cells):
    """The correction system of the first step of the benchmark case."""
    state = initialize_case(CaseConfig(n_cells=n_cells)).state
    return state, _correction_system(state)[0]


# plain out-of-place references of the correction system's in-place kernels,
# one expression per quantity; the kernels must match them bit for bit
# (test_in_place_correction_kernels_match_references)


def reference_face_coefficients(state, u_t, sgp, source):
    """(a_face, b_face, hs_known) of ``_CorrectionSystem``."""
    grid = state.grid
    dt = state.dt
    rho_d = state.rho_d[1:-1]
    a_face = u_t[1:-1] + dt / rho_d * sgp[1:-1]
    b_face = dt / (rho_d * grid.dual_volumes[1:-1])
    hdt = grid.cell_volumes / dt
    hs_known = (hdt * (state.p - state.rho * state.h_s)
                - grid.cell_volumes * source)
    return a_face, b_face, hs_known


def reference_residual(system, p):
    dp = p[:-1] - p[1:]
    b_dp = system.b_face * dp
    u = system.a_face + b_dp
    pos = u >= 0.0
    p_up = np.where(pos, p[:-1], p[1:])
    Fh = u * p_up / system.kappa
    udp = u * dp
    work_right = np.where(pos, udp, 0.0)
    r = system.hdt * (p / system.kappa - p) + system.hs_known
    r[:-1] += Fh + (udp - work_right)
    r[1:] += work_right - Fh
    return r, (b_dp, u, pos, p_up)


def reference_jacobian(system, lin):
    b_dp, u, pos, p_up = lin
    dwork = u + b_dp
    w = dwork - u * system.inv_kappa
    w_pos = np.where(pos, w, 0.0)
    m = -system.b_face * system.inv_kappa * p_up
    ab = np.zeros((3, system.n))
    ab[0, 1:] = m - (w - w_pos)
    ab[2, :-1] = m + w_pos
    ab[1] = system.jac_diag
    ab[1, :-1] += dwork - ab[2, :-1]
    ab[1, 1:] -= ab[0, 1:] + dwork
    return ab


def _same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@settings(max_examples=60, deadline=None)
@given(state=admissible_states(), seed=st.integers(0, 2**32 - 1),
       spread=st.sampled_from([0.0, 1e-6, 1e-2, 0.3]))
def test_in_place_correction_kernels_match_references(state, seed, spread):
    system, inputs = _correction_system(state)
    for got, want in zip((system.a_face, system.b_face, system.hs_known),
                         reference_face_coefficients(state, *inputs)):
        assert _same_bits(got, want)
    n = state.grid.n_cells
    rng = np.random.default_rng(seed)
    p = state.p * (1.0 + spread * rng.uniform(-1.0, 1.0, n))
    p_before = p.copy()
    r, lin = system.residual(p)
    r_ref, lin_ref = reference_residual(system, p)
    assert _same_bits(p, p_before)  # the point is only read
    assert _same_bits(r, r_ref)
    for got, want in zip(lin, lin_ref):
        assert _same_bits(got, want)
    ab = system.jacobian(lin)
    assert ab is system.band
    assert _same_bits(ab, reference_jacobian(system, lin_ref))
    # the Newton step overwrites r only: the band stays for the closing step
    band = ab.copy()
    lin_bytes = [a.tobytes() for a in lin]
    system.newton_step(r)
    assert _same_bits(system.band, band)
    assert [a.tobytes() for a in lin] == lin_bytes
    # a second residual returns arrays of its own, so that a caller holding
    # the first (as the central-difference Jacobian test does) compares two
    # points, not one buffer with itself
    r2, lin2 = system.residual(p_before * 1.001)
    owned = [system.band, system.a_face, system.b_face, system.hs_known,
             system.hdt, system.minus_b_kappa, system.jac_diag]
    for first, second in zip((r, *lin), (r2, *lin2)):
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(second, a) for a in owned)


def _benchmark_flow_step(monkeypatch, reject=None):
    """The flow step of the benchmark's first step, with its closing Newton
    step recorded: the system, the p and scaled residual before the step
    and, when it solves, its iterate and scaled residual.  ``reject`` names
    the method that fails the closing step: ``norm`` by a residual no lower
    than before it, ``newton_step`` by no usable step.  Whether the step is
    kept or not, the interior velocities must be a + b (p_L - p_R) of the
    returned p, bit for bit, and zero at the walls."""
    setup = initialize_case(CaseConfig())
    state = setup.state
    omega = chemistry_step(state, setup.chem_config).omega_theta
    residual = _CorrectionSystem.residual
    norm = _CorrectionSystem.norm
    newton_step = _CorrectionSystem.newton_step
    last, closing = {}, {}

    def recording_residual(system, p):
        if closing:
            closing["p_next"] = p
        else:
            last["p"] = p.copy()
        return residual(system, p)

    def recording_norm(system, r):
        value = norm(system, r)
        if not closing:
            last["res"] = value
            return value
        closing["res_next"] = value
        return closing["res"] if reject == "norm" else value

    def recording_newton_step(system, r):
        if last["res"] < hydro._NONLINEAR_TOL:  # the closing step
            closing.update(system=system, p=last["p"], res=last["res"])
            if reject == "newton_step":
                return None, "singular Jacobian"
        return newton_step(system, r)

    monkeypatch.setattr(_CorrectionSystem, "residual", recording_residual)
    monkeypatch.setattr(_CorrectionSystem, "norm", recording_norm)
    monkeypatch.setattr(_CorrectionSystem, "newton_step", recording_newton_step)
    flow = euler_step(state, omega)
    system = closing["system"]
    assert flow.u[0] == 0.0 and flow.u[-1] == 0.0
    want = system.a_face + system.b_face * (flow.p[:-1] - flow.p[1:])
    assert _same_bits(flow.u[1:-1], want)
    return flow, closing


def test_end_of_step_velocity_is_the_correction_relation_at_p(monkeypatch):
    # the solve takes its velocity from the last kept residual evaluation;
    # on the benchmark's first step the closing Newton step lowers the
    # residual and is kept
    flow, closing = _benchmark_flow_step(monkeypatch)
    assert flow.p is closing["p_next"]
    assert not _same_bits(flow.p, closing["p"])
    assert closing["res_next"] < closing["res"]
    mass = closing["system"].mass_norm(flow.rho, flow.flux)
    assert flow.residual == max(closing["res_next"], mass)


@pytest.mark.parametrize("reject", ["norm", "newton_step"])
def test_a_rejected_closing_step_returns_the_p_from_before_it(monkeypatch,
                                                             reject):
    # a closing step that does not lower the residual, or has no usable
    # step, is rejected: the solve returns the p and residual from before it
    flow, closing = _benchmark_flow_step(monkeypatch, reject)
    assert _same_bits(flow.p, closing["p"])
    mass = closing["system"].mass_norm(flow.rho, flow.flux)
    assert flow.residual == max(closing["res"], mass)


@pytest.mark.parametrize("floor,kept", [(0.0, False), (5e-324, True)])
def test_a_closing_step_keeps_only_positive_pressures(monkeypatch, floor,
                                                      kept):
    # a closing step that lowers the residual but leaves a pressure at
    # exactly 0 is rejected; one that leaves the smallest double is kept.
    # The residuals read 1, then 1e-13 (converged after one zero Newton
    # step), then 0 at the closing iterate
    state = initialize_case(CaseConfig(n_cells=12)).state
    p = state.p.copy()
    p[0] = 1e-320  # a subnormal, so that p - delta is exact
    state = replace(state, p=p)
    system = _CorrectionSystem(state, np.zeros(state.grid.n_cells))
    norms = iter([1.0, 1e-13, 0.0])
    closing = np.zeros_like(p)
    closing[0] = 1e-320 - floor
    steps = iter([np.zeros_like(p), closing])
    monkeypatch.setattr(system, "norm", lambda r: next(norms))
    monkeypatch.setattr(system, "newton_step", lambda r: (next(steps), None))
    flow = correction_solve(system)
    assert flow.iterations == 2
    assert flow.p[0] == (floor if kept else 1e-320)


def test_a_line_step_halves_a_trial_of_exactly_zero(monkeypatch):
    # a Newton step delta = p makes the trial p - delta exactly 0 in every
    # cell, which is no positive pressure: the line step halves the step,
    # and the next residual is evaluated at p / 2
    state = initialize_case(CaseConfig(n_cells=12)).state
    system = _CorrectionSystem(state, np.zeros(state.grid.n_cells))
    residual = system.residual
    seen = []

    def recording_residual(p):
        seen.append(p.copy())
        return residual(p)

    monkeypatch.setattr(system, "residual", recording_residual)
    monkeypatch.setattr(system, "norm", lambda r: 1.0)
    monkeypatch.setattr(system, "newton_step", lambda r: (seen[-1].copy(),
                                                          None))
    with pytest.raises(StepFailure, match="stagnated"):
        correction_solve(system)
    assert _same_bits(seen[0], state.p)
    assert _same_bits(seen[1], state.p / 2.0)


def test_a_level_at_its_solution_takes_no_newton_step(monkeypatch):
    # at rest under uniform pressure with no heat release, p^n already meets
    # the tolerance: the solve takes no Newton step, the closing one
    # included, and returns p^n itself
    def no_newton_step(self, r):
        raise AssertionError("Newton step taken")

    monkeypatch.setattr(hydro._CorrectionSystem, "newton_step", no_newton_step)
    state = quiescent_state(n=10)
    flow = euler_step(state, np.zeros(state.grid.n_cells))
    assert flow.iterations == 0
    assert _same_bits(flow.p, state.p)
    assert flow.residual < hydro._NONLINEAR_TOL


def test_a_residual_of_exactly_the_tolerance_does_not_meet_it(monkeypatch):
    # the solve stops strictly below _NONLINEAR_TOL: the same level, with
    # every residual read as the tolerance itself, stagnates
    monkeypatch.setattr(_CorrectionSystem, "norm",
                        lambda self, r: hydro._NONLINEAR_TOL)
    state = quiescent_state(n=10)
    with pytest.raises(StepFailure, match="stalled at residual .*: stagnated"):
        euler_step(state, np.zeros(state.grid.n_cells))


def test_a_drop_of_exactly_the_stagnation_factor_is_no_progress(monkeypatch):
    # residuals 1, then 0.9 = _STAGNATION_DROP * 1 ever after: the first
    # residual stays the best, so the solve stagnates 12 iterations after it
    residuals = iter([1.0])
    monkeypatch.setattr(_CorrectionSystem, "norm",
                        lambda self, r: next(residuals, hydro._STAGNATION_DROP))
    state = quiescent_state(n=10)
    with pytest.raises(StepFailure, match="stagnated after 12 Newton"):
        euler_step(state, np.zeros(state.grid.n_cells))


def test_correction_jacobian_matches_central_differences():
    state, system = _benchmark_correction_system(30)
    n = state.grid.n_cells
    p = state.p * (1.0 + 1e-2 * np.random.default_rng(7).uniform(-1.0, 1.0, n))
    r, lin = system.residual(p)
    upwind = lin[2]
    ab = system.jacobian(lin)
    J = np.diag(ab[1]) + np.diag(ab[2, :-1], -1) + np.diag(ab[0, 1:], 1)
    J_fd = np.zeros((n, n))
    for c in range(n):
        step = 1e-6 * p[c]
        pp = p.copy()
        pp[c] += step
        pm = p.copy()
        pm[c] -= step
        rp, lin_p = system.residual(pp)
        rm, lin_m = system.residual(pm)
        # the upwind switches stay put, so the residual is smooth here
        assert np.array_equal(lin_p[2], upwind) and np.array_equal(lin_m[2], upwind)
        J_fd[:, c] = (rp - rm) / (2.0 * step)
    row_scale = np.max(np.abs(J), axis=1)
    assert np.all(row_scale > 0.0)
    rel = np.max(np.abs(J_fd - J), axis=1) / row_scale
    assert np.max(rel) <= 1e-8


def test_correction_solve_converges_at_large_acoustic_cfl():
    # a resting contact with a step far beyond the acoustic limit (c dt / h
    # near 1000): the pressure stays an unknown of its own, so no rounding
    # of kappa rho h_s is amplified by (c dt / h)^2 and Newton reaches the
    # tolerance
    n = 16
    mix = CaseConfig().mixture()
    grid = build_uniform_grid(n, 1.0)
    rho = np.random.default_rng(3).uniform(0.5, 1.5, n)
    h_s = mix.gamma / (mix.gamma - 1.0) * 1.0e5 / rho
    y = (np.zeros(n), np.zeros(n), np.full(n, 0.6), np.full(n, 0.4))
    state = make_state(grid, mix, 0.1, rho, np.zeros(n + 1), h_s, y, np.ones(n))
    result = euler_step(state, np.zeros(n))
    assert result.residual < 1e-12
    assert np.max(np.abs(result.u)) < 1e-9
    assert np.allclose(result.p, state.p, rtol=1e-12)


def test_diverging_correction_solve_is_a_step_failure():
    # a 2:1 pressure jump stepped at an acoustic CFL above 100: Newton
    # stagnates, which must surface as a StepFailure saying so long before
    # the iteration cap
    n = 4
    mix = CaseConfig().mixture()
    grid = build_uniform_grid(n, 1.0)
    h_s = np.full(n, mix.gamma / (mix.gamma - 1.0) * 5.0e4)
    u = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    y = (np.zeros(n), np.zeros(n), np.full(n, 0.5), np.full(n, 0.5))
    state = make_state(grid, mix, 0.125, np.ones(n), u, h_s, y, np.zeros(n))
    with pytest.raises(StepFailure, match="stalled at residual .*: stagnated "
                                          "after 15 Newton iterations"):
        euler_step(state, np.zeros(n))


def test_correction_solve_raises_when_starved(monkeypatch):
    state = initialize_case(CaseConfig(n_cells=40)).state
    system = _CorrectionSystem(state, np.zeros(state.grid.n_cells))
    monkeypatch.setattr(hydro, "_NONLINEAR_TOL", 1e-14)
    monkeypatch.setattr(hydro, "_MAX_ITERATIONS", 1)
    with pytest.raises(StepFailure, match="iteration cap reached after 1 Newton"):
        correction_solve(system)


def test_a_capped_correction_solve_makes_no_newton_solve_past_the_cap(
        monkeypatch):
    # with a cap of one iteration, the solve makes its one Newton step and
    # stops at the next residual; the closing solve of a converged iterate
    # never runs
    state = initialize_case(CaseConfig(n_cells=40)).state
    system = _CorrectionSystem(state, np.zeros(state.grid.n_cells))
    solves = []
    real = hydro.solve_banded
    monkeypatch.setattr(hydro, "solve_banded",
                        lambda *a, **kw: solves.append(1) or real(*a, **kw))
    monkeypatch.setattr(hydro, "_NONLINEAR_TOL", 1e-14)
    monkeypatch.setattr(hydro, "_MAX_ITERATIONS", 1)
    with pytest.raises(StepFailure, match="iteration cap reached after 1 Newton"):
        correction_solve(system)
    assert len(solves) == 1


def _singular_solve(l_and_u, ab, b, **kwargs):
    raise np.linalg.LinAlgError("singular matrix")


def _nan_solve(l_and_u, ab, b, **kwargs):
    return np.full_like(b, np.nan)


@pytest.mark.parametrize("broken,why", [
    pytest.param(_singular_solve, "singular Jacobian", id="singular"),
    pytest.param(_nan_solve, "non-finite Newton step", id="non-finite"),
])
def test_correction_solve_names_why_newton_stopped(monkeypatch, broken, why):
    # the Newton steps go through the module's solve_banded; a broken solve
    # stops Newton at once, and the failure names the reason (the system is
    # built first: its prediction is a banded solve too)
    state = initialize_case(CaseConfig(n_cells=40)).state
    system = _CorrectionSystem(state, np.zeros(state.grid.n_cells))
    monkeypatch.setattr(hydro, "solve_banded", broken)
    with pytest.raises(StepFailure, match=f": {why} after 0 Newton iterations"):
        correction_solve(system)


@pytest.mark.parametrize("limiter", SCHEMES)
def test_the_flow_step_holds_no_prediction(monkeypatch, limiter):
    # the prediction is the correction system's constructor's own: when a
    # step's correction solve starts, neither the scaled gradient nor the
    # predicted velocity of that step is reachable
    returned, seen = [], []
    scale, predict, solve = (hydro.scale_pressure_gradient,
                             hydro.predict_velocity, hydro.correction_solve)

    def recording(fn):
        def wrapper(*args):
            value = fn(*args)
            returned.append(weakref.ref(value))
            return value
        return wrapper

    def checking(*args):
        seen.append((len(returned), sum(ref() is not None for ref in returned)))
        returned.clear()
        return solve(*args)

    monkeypatch.setattr(hydro, "scale_pressure_gradient", recording(scale))
    monkeypatch.setattr(hydro, "predict_velocity", recording(predict))
    monkeypatch.setattr(hydro, "correction_solve", checking)
    config = CaseConfig(n_cells=40, t_end=0.0024, time_mode="explicit-limited",
                        limiter=limiter)
    gc.disable()
    try:
        result = run_case(config)
    finally:
        gc.enable()
    assert result.n_steps >= 4
    assert seen == [(2, 0)] * result.n_steps


def test_total_energy_of_resting_state_is_internal_only():
    state = quiescent_state(n=10)
    hc = chemical_enthalpy(state.mixture, state.y_P)
    want = np.sum(state.grid.cell_volumes
                  * (state.rho * state.e_s + state.rho_prev * hc))
    assert total_energy(state) == pytest.approx(want, rel=1e-14)


def test_total_energy_conserved_over_steps():
    cfg = short_benchmark(n_cells=60, steps=3)
    setup = initialize_case(cfg)
    state = setup.state
    e0 = total_energy(state)
    for _ in range(setup.n_steps):
        state, _ = advance(state, setup.chem_config)
    assert abs(total_energy(state) - e0) < 1e-11 * abs(e0)


def scaled_energy_residual(state, new_state, chem, flow):
    """Largest |internal-energy residual| of the step from ``state``, in
    units of max |rho e_s| / dt."""
    res = internal_energy_residual(state, new_state, chem, flow)
    scale = np.max(np.abs(new_state.rho * new_state.e_s)) / state.dt
    return np.max(np.abs(res)) / scale


@pytest.mark.parametrize("time_mode,limiter", [
    ("implicit-upwind", "upwind"), ("explicit-limited", "upwind"),
    ("explicit-limited", "muscl"), ("explicit-limited", "antidiffusive"),
], ids=["implicit-upwind", "explicit-upwind", "explicit-muscl",
        "explicit-antidiffusive"])
def test_internal_energy_balance_of_one_step(time_mode, limiter):
    setup = initialize_case(CaseConfig(n_cells=100, time_mode=time_mode,
                                       limiter=limiter))
    state = setup.state
    for _ in range(3):
        new_state, info = advance(state, setup.chem_config)
        # the heat release cancels between the sensible and chemical parts,
        # so the only source left in the combined balance is the
        # compensation term
        assert scaled_energy_residual(state, new_state, info["chemistry"],
                                      info["flow"]) < 1e-10
        state = new_state


def test_internal_energy_balance_needs_the_convected_faces():
    # auditing an anti-diffusive step as an implicit one, with the upwind
    # faces of the new fractions, breaks the balance
    setup = initialize_case(CaseConfig(n_cells=100,
                                       time_mode="explicit-limited",
                                       limiter="antidiffusive"))
    new_state, info = advance(setup.state, setup.chem_config)
    upwind = replace(info["chemistry"], limiter=None)
    assert scaled_energy_residual(setup.state, new_state, upwind,
                                  info["flow"]) > 1e-3


def test_euler_step_source_accounts_for_prediction_loss():
    setup = initialize_case(CaseConfig(n_cells=50))
    state = setup.state
    result = euler_step(state, np.zeros(state.grid.n_cells))
    total_R = np.sum(result.kinetic_residual)
    S = compensation_source(result.kinetic_residual, state.grid)
    total_S = np.sum(state.grid.cell_volumes * S)
    assert total_S == pytest.approx(total_R, rel=1e-12, abs=1e-300)
    assert np.all(result.kinetic_residual >= 0.0)
