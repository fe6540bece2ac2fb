"""End-to-end acceptance battery.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them)
and asserts the same condition, so the suite is green exactly when every
criterion holds.  The expensive fixtures (the implicit benchmark run and the
four-mesh scheme sweep) are shared across criteria.
"""

import time

import numpy as np
import pytest

from stagflame import transport
from stagflame.errors import StepFailure
from stagflame.grid import build_uniform_grid
from stagflame.harness import (
    CaseConfig,
    advance,
    burnt_zone_asymptotic_distance,
    check_state_gates,
    initialize_case,
    observed_orders,
    run_case,
    run_sweep,
    sweep_report,
    sweep_text,
)
from stagflame.hydro import _NONLINEAR_TOL
from stagflame.oracle import asymptotic_composition, rh_residuals
from stagflame.transport import (
    cfl_number,
    face_stencil,
    face_values,
    pressure_gradient,
    primal_mass_flux,
)
from helpers import quiescent_state

SCHEMES = ("upwind", "muscl", "antidiffusive")


def _report(name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    return ok


@pytest.fixture(scope="module")
def implicit_run():
    """Benchmark case, 250 cells, implicit time mode, default tolerances."""
    started = time.perf_counter()
    result = run_case(CaseConfig())
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def sweep_runs():
    """Four-mesh convergence study for the three face schemes: the runs, the
    runs of each scheme, and the time the sweep took."""
    config = CaseConfig(time_mode="explicit-limited")
    started = time.perf_counter()
    runs = run_sweep(config, meshes=[250, 500, 1000, 2000], schemes=SCHEMES)
    elapsed = time.perf_counter() - started
    by_scheme = {s: [r for r in runs if r.config.limiter == s] for s in SCHEMES}
    return runs, by_scheme, elapsed


# ---------------------------------------------------------------------------
# 1. total-energy conservation of the implicit scheme


def test_criterion_1_energy_conservation(implicit_run):
    result, elapsed = implicit_run
    assert _NONLINEAR_TOL == 1e-12
    assert result.n_steps >= 100
    drift = result.energy_drift_rel
    ok = drift < 1e-8 and elapsed < 10.0
    assert _report(
        "1. total-energy conservation",
        ok,
        f"relative drift {drift:.2e} over {result.n_steps} steps, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 2. bounds and positivity gates on every accepted step


def test_criterion_2_hard_gates(implicit_run):
    result, _ = implicit_run
    worst_sum = max(row["max_sum_y_error"] for row in result.diagnostics)
    min_G = min(row["min_G"] for row in result.diagnostics)
    max_G = max(row["max_G"] for row in result.diagnostics)
    ok = worst_sum <= 1e-10 and min_G >= -1e-10 and max_G <= 1.0 + 1e-10
    # the gates are enforced, not merely observed: a violating state is
    # rejected by the same check every accepted step already passed
    check_state_gates(result.state)
    bad = initialize_case(CaseConfig(n_cells=24)).state
    bad.y_F[0] += 2e-10
    with pytest.raises(StepFailure):
        check_state_gates(bad)
    assert _report(
        "2. mass-fraction and positivity gates",
        ok,
        f"worst sum error {worst_sum:.2e}, G range [{min_G:.2e}, {1.0 - max_G:+.2e}]",
    )


# ---------------------------------------------------------------------------
# 3. gradient/divergence duality


def test_criterion_3_duality_identity():
    rng = np.random.default_rng(7121)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        if trial == 0:
            n = 10
        elif trial == 1:
            n = 1000
        else:
            n = int(rng.integers(10, 1001))
        grid = build_uniform_grid(n, float(rng.uniform(0.5, 4.0)))
        p = rng.uniform(0.1, 10.0, n)
        u = np.zeros(n + 1)
        u[1:-1] = rng.uniform(-5.0, 5.0, n - 1)
        grad = pressure_gradient(p, grid)
        div = (u[1:] - u[:-1]) / grid.cell_volumes
        total = (np.sum(grid.cell_volumes * p * div)
                 + np.sum(grid.dual_volumes * u * grad))
        scale = np.sum(np.abs(grid.cell_volumes * p * div)) + 1e-300
        worst = max(worst, abs(total) / scale)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 1.0
    assert _report(
        "3. pressure-gradient / velocity-divergence duality",
        ok,
        f"worst relative residual {worst:.2e} over 1000 fields, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 4. exact transport of a step profile by the anti-diffusive scheme


def test_criterion_4_exact_heaviside_transport(monkeypatch):
    n, j0, steps = 400, 60, 200
    grid = build_uniform_grid(n, float(n))  # h = 1
    ones = np.ones(n)
    F = np.ones(n + 1)
    started = time.perf_counter()
    worst_err = 0.0
    worst_mixed = 0
    for nu in (0.3, 0.5, 0.9):
        # the slope cap (1 - nu) / nu makes the scheme exact on a step
        monkeypatch.setattr(transport, "S_MAX", (1.0 - nu) / nu)
        y = np.where(np.arange(n) < j0, 1.0, 0.0)
        stencil = face_stencil(F, "antidiffusive", ones, nu, grid)
        for k in range(1, steps + 1):
            vals = face_values(y, stencil)
            y = y - nu * (vals[1:] - vals[:-1])
            front = j0 + k * nu
            exact = np.clip(front - np.arange(n), 0.0, 1.0)
            worst_err = max(worst_err, float(np.max(np.abs(y - exact))))
            mixed = int(np.sum((y > 1e-13) & (y < 1.0 - 1e-13)))
            worst_mixed = max(worst_mixed, mixed)
    elapsed = time.perf_counter() - started
    ok = worst_err <= 1e-13 and worst_mixed <= 1 and elapsed < 1.0
    assert _report(
        "4. exact step-profile transport (anti-diffusive)",
        ok,
        f"worst error {worst_err:.2e}, at most {worst_mixed} transitional cell, "
        f"{elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# 5. MUSCL face values reduce to minmod with unit coefficients


def test_criterion_5_muscl_minmod_equivalence():
    rng = np.random.default_rng(515)
    n = 10040
    y = rng.uniform(-1.0, 1.0, n)
    F = rng.uniform(-1.0, 1.0, n + 1)
    assert transport.ZETA_MINUS == transport.ZETA_PLUS == 1.0
    vals = face_values(y, face_stencil(F, "muscl", np.ones(n), 1.0,
                                       build_uniform_grid(n)))
    j = np.arange(2, n - 1)  # faces whose far-upstream cell exists
    assert j.size >= 10_000
    pos = F[j] >= 0.0
    up = np.where(pos, j - 1, j)
    dn = np.where(pos, j, j - 1)
    m = 2 * up - dn
    a = y[up] - y[m]
    b = y[dn] - y[up]
    mm = np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)
    want = y[up] + 0.5 * mm
    worst = float(np.max(np.abs(vals[j] - want)))
    ok = worst <= 1e-15
    assert _report(
        "5. MUSCL equals independent minmod at unit coefficients",
        ok,
        f"worst deviation {worst:.2e} over {j.size} random triples",
    )


# ---------------------------------------------------------------------------
# 6. discrete maximum principle of the explicit limited schemes


def _transport_trial(rng, scheme, n_trials=500):
    """Random explicit transport steps; returns the worst bound excess."""
    worst = 0.0
    for _ in range(n_trials):
        n = int(rng.integers(8, 80))
        grid = build_uniform_grid(n, 1.0)
        rho_old = rng.uniform(0.5, 2.0, n)
        u = np.zeros(n + 1)
        u[1:-1] = rng.uniform(-1.0, 1.0, n - 1)
        y = rng.uniform(0.0, 1.0, n)
        F = primal_mass_flux(rho_old, u)
        dt = 0.9 * float(np.min(
            rho_old * grid.cell_volumes
            / (np.abs(F[:-1]) + np.abs(F[1:]) + 1e-30)))
        for _ in range(60):
            rho_new = rho_old - dt * np.diff(F) / grid.cell_volumes
            if np.min(rho_new) > 0.0 and cfl_number(F, rho_new, dt, grid) <= 1.0:
                break
            dt *= 0.7
        vals = face_values(y, face_stencil(F, scheme, rho_new, dt, grid))
        y_new = (rho_old * grid.cell_volumes * y
                 - dt * np.diff(F * vals)) / (rho_new * grid.cell_volumes)
        worst = max(worst,
                    float(np.max(y_new) - np.max(y)),
                    float(np.min(y) - np.min(y_new)))
    return worst


def test_criterion_6_discrete_maximum_principle(monkeypatch):
    rng = np.random.default_rng(606)
    assert transport.S_MAX == 2.0
    worst_muscl = _transport_trial(rng, "muscl")
    worst_ad = _transport_trial(rng, "antidiffusive")

    # Regression for the slope cap: diverging flow, both faces of cell 2
    # carry mass out.  The convexity argument budgets each outgoing face by
    # its admissible downwind slope; with the cap removed that slope is
    # (1 - nu')/nu = 3 per face (and each face's bound is attained by actual
    # data, one face at a time, below), so the guaranteed coefficient of the
    # cell's own old value drops to 1 - nu*3 - nu*3 = -1/2 and the update is
    # no longer certifiably a convex combination of old values.  With the
    # cap the slopes stay at s_max = 2 and the coefficient stays >= 0.
    n = 5
    grid = build_uniform_grid(n, float(n))
    rho_old = np.ones(n)
    u = np.zeros(n + 1)
    u[2], u[3] = -1.0, 1.0
    F = primal_mass_flux(rho_old, u)
    dt = 1.0 / 6.0
    rho_new = rho_old - dt * np.diff(F) / grid.cell_volumes
    assert cfl_number(F, rho_new, dt, grid) <= 0.5  # within the capped bound
    nu = dt * 1.0 / (rho_new[2] * grid.cell_volumes[2])  # 1/4 per face
    # one profile per face, each driving that face to its slope bound
    y_left = np.array([0.0, 14.0, 1.0, -3.0, 0.0])
    y_right = np.array([0.0, -3.0, 1.0, 14.0, 0.0])

    def worst_slopes(s_max):
        monkeypatch.setattr(transport, "S_MAX", s_max)
        stencil = face_stencil(F, "antidiffusive", rho_new, dt, grid)
        va = face_values(y_left, stencil)
        vb = face_values(y_right, stencil)
        s_left = (va[2] - y_left[2]) / (y_left[2] - y_left[3])
        s_right = (vb[3] - y_right[2]) / (y_right[2] - y_right[1])
        return s_left, s_right

    s_unc = worst_slopes(1e30)
    s_cap = worst_slopes(2.0)
    c_uncapped = 1.0 - nu * sum(s_unc)
    c_capped = 1.0 - nu * sum(s_cap)
    regression_ok = c_uncapped < 0.0 and c_capped >= 0.0
    assert s_unc == pytest.approx((3.0, 3.0))
    assert s_cap == pytest.approx((2.0, 2.0))
    assert c_uncapped == pytest.approx(-0.5)
    assert c_capped == pytest.approx(0.0, abs=1e-12)

    # even uncapped, a one-dimensional step cannot escape the data hull:
    # the two faces' slope bounds reference opposite neighbours and cannot
    # be saturated by the same profile, so the realisable overshoot the cap
    # prevents needs cells with more than two faces.  Document that the
    # uncapped random search stays bounded here.
    monkeypatch.setattr(transport, "S_MAX", 1e30)
    worst_uncapped = _transport_trial(rng, "antidiffusive")

    ok = (worst_muscl <= 1e-12 and worst_ad <= 1e-12 and regression_ok
          and worst_uncapped <= 1e-12)
    assert _report(
        "6. discrete maximum principle at CFL <= 1",
        ok,
        f"worst excess: muscl {worst_muscl:.2e}, anti-diffusive {worst_ad:.2e}; "
        f"cap regression: own-value coefficient {c_uncapped:+.2f} uncapped "
        f"vs {c_capped:+.2f} capped",
    )


# ---------------------------------------------------------------------------
# 7. stationary contact discontinuity is preserved


def test_criterion_7_contact_preservation():
    from stagflame.chemistry import ChemStepConfig

    state = quiescent_state(n=64, rho_left=1.0, rho_right=0.125, p0=1.0e5,
                            dt=1e-4)
    chem = ChemStepConfig(epsilon=1e-3, flame_speed_product=0.0)
    p0 = state.p.copy()
    c_scale = float(np.max(np.sqrt(
        state.mixture.gamma * state.p / state.rho)))
    worst_p = 0.0
    worst_u = 0.0
    for _ in range(50):
        state, _ = advance(state, chem)
        worst_p = max(worst_p, float(np.max(np.abs(state.p - p0))) / p0[0])
        worst_u = max(worst_u, float(np.max(np.abs(state.u))) / c_scale)
    ok = worst_p < 1e-11 and worst_u < 1e-11
    assert _report(
        "7. stationary contact preservation",
        ok,
        f"max scaled drift over 50 steps: p {worst_p:.2e}, u {worst_u:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. exact-solution oracle self-validation


def test_criterion_8_oracle_self_validation():
    setup = initialize_case(CaseConfig())
    pattern = setup.pattern
    residuals = rh_residuals(pattern)
    worst = max(residuals.values())
    speeds_ok = pattern.s_shock > pattern.s_flame
    want = asymptotic_composition(pattern.mixture, *pattern.y_fresh[:3], G=0.0)
    burnt_ok = all(a == b for a, b in zip(pattern.y_burnt, want))
    ok = worst < 1e-10 and speeds_ok and burnt_ok
    assert _report(
        "8. oracle self-validation",
        ok,
        f"worst jump residual {worst:.2e}, precursor {pattern.s_shock:.1f} m/s "
        f"> front {pattern.s_flame:.1f} m/s, burnt composition exact",
    )


# ---------------------------------------------------------------------------
# 9. convergence orders and scheme ranking on the benchmark sweep

# reference L1 errors at the two coarsest meshes for the calibrated
# constants (gamma = 1.4, cfl = 0.8, epsilon_per_h = 0.01); the sweep must
# land within a factor of two of each entry
_REFERENCE_ERRORS = {
    "upwind": {"p": (1.65e5, 1.25e5), "u": (217.0, 164.0),
               "rho": (0.769, 0.616)},
    "muscl": {"p": (7.26e4, 3.88e4), "u": (156.0, 78.7),
              "rho": (0.371, 0.223)},
    "antidiffusive": {"p": (4.59e4, 2.43e4), "u": (107.0, 57.9),
                      "rho": (0.274, 0.165)},
}


def test_criterion_9_convergence_orders(sweep_runs):
    runs, by_scheme, elapsed = sweep_runs
    order_up = observed_orders(by_scheme["upwind"], "rho")[1]
    order_mu = observed_orders(by_scheme["muscl"], "rho")[1]
    order_ad = observed_orders(by_scheme["antidiffusive"], "rho")[1]
    orders_ok = (0.25 <= order_up <= 0.6
                 and 0.6 <= order_mu <= 1.1
                 and 0.6 <= order_ad <= 1.1)

    ranking_ok = True
    for f in ("rho", "u", "p"):
        for i in range(4):
            e_ad = by_scheme["antidiffusive"][i].errors[f]
            e_mu = by_scheme["muscl"][i].errors[f]
            e_up = by_scheme["upwind"][i].errors[f]
            ranking_ok = ranking_ok and e_ad <= e_mu <= e_up

    factor_ok = True
    worst_ratio = 1.0
    for scheme, table in _REFERENCE_ERRORS.items():
        for f, refs in table.items():
            for i, ref in enumerate(refs):
                ratio = by_scheme[scheme][i].errors[f] / ref
                worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
                factor_ok = factor_ok and 0.5 <= ratio <= 2.0

    # each scheme's block of the report states the settings it ran with
    blocks = sweep_text(sweep_report(runs)).split("scheme = ")[1:]
    meta_ok = [b.split("\n", 1)[0] for b in blocks] == list(SCHEMES) and all(
        f"\n  {key} = " in b
        for b in blocks for key in ("gamma", "cfl", "epsilon_per_h"))

    ok = orders_ok and ranking_ok and factor_ok and meta_ok and elapsed < 300.0
    assert _report(
        "9. convergence orders and scheme ranking",
        ok,
        f"rho orders: upwind {order_up:.2f}, muscl {order_mu:.2f}, "
        f"anti-diffusive {order_ad:.2f}; worst reference ratio {worst_ratio:.2f}; "
        f"{elapsed:.0f} s",
    )


# ---------------------------------------------------------------------------
# 10. burnt-zone composition approaches the fast-chemistry limit


def test_criterion_10_asymptotic_consistency(sweep_runs):
    _, by_scheme, _ = sweep_runs
    ok = True
    parts = []
    for scheme in SCHEMES:
        d = [burnt_zone_asymptotic_distance(r.state) for r in by_scheme[scheme]]
        ok = ok and all(d[i + 1] < d[i] for i in range(len(d) - 1))
        parts.append(f"{scheme} {d[0]:.3f}->{d[-1]:.3f}")
    assert _report(
        "10. burnt zone approaches the fast-chemistry composition",
        ok,
        "; ".join(parts),
    )
