import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stagflame.chemistry import ChemStepConfig
from stagflame.errors import ConfigError, StepFailure
from stagflame.grid import build_uniform_grid
from stagflame.harness import (
    CaseConfig,
    advance,
    burnt_zone_asymptotic_distance,
    check_state_gates,
    initialize_case,
    l1_error,
    load_config,
    parse_config_text,
    run_case,
    run_sweep,
    write_run_csvs,
    write_sweep_csv,
)
from stagflame.hydro import CorrectionSolveConfig, total_energy
from stagflame.transport import LimiterParams, cfl_number, primal_mass_flux
from helpers import benchmark_mixture, make_state


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text_basics():
    text = """
    # benchmark-ish settings
    n_cells = 60   # trailing comment
    t_end=0.0021

    limiter = muscl
    """
    data = parse_config_text(text)
    assert data == {"n_cells": "60", "t_end": "0.0021", "limiter": "muscl"}


def test_parse_config_text_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("n_cells = 60\nnot a pair\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("n_cells =\n")


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        CaseConfig.from_dict({"n_cels": "60"})


def test_from_dict_rejects_bad_literals():
    with pytest.raises(ConfigError, match="integer"):
        CaseConfig.from_dict({"n_cells": "sixty"})
    with pytest.raises(ConfigError, match="number"):
        CaseConfig.from_dict({"gamma": "fast"})


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text("n_cells = 40\ncfl = 0.5\n")
    cfg = load_config(path, overrides=("n_cells=80", "time_mode=explicit-limited",
                                       "limiter=antidiffusive"))
    assert cfg.n_cells == 80
    assert cfg.cfl == 0.5
    assert cfg.limiter == "antidiffusive"
    with pytest.raises(ConfigError, match="key=value"):
        load_config(path, overrides=("oops",))
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_config_validation():
    with pytest.raises(ConfigError, match="at most one"):
        CaseConfig(cfl=0.5, dt=1e-5)
    with pytest.raises(ConfigError, match="n_cells"):
        CaseConfig(n_cells=2)
    with pytest.raises(ConfigError, match="t_end"):
        CaseConfig(t_start=0.005, t_end=0.002)
    with pytest.raises(ConfigError, match=r"\(0, 1\]"):
        CaseConfig(time_mode="explicit-limited", cfl=1.2)
    # the implicit mode tolerates CFL above one
    assert CaseConfig(cfl=1.2).cfl == 1.2
    assert CaseConfig().cfl == 0.8
    assert CaseConfig().epsilon_per_h == 1e-2


def test_uniform_init_needs_explicit_dt():
    with pytest.raises(ConfigError, match="zero initial flux"):
        initialize_case(CaseConfig(init_mode="uniform", n_cells=16))
    setup = initialize_case(CaseConfig(init_mode="uniform", n_cells=16, dt=1e-5))
    assert setup.pattern is None
    assert np.all(setup.state.u == 0.0)
    assert np.all(setup.state.G == 1.0)
    # only the oracle initialization needs t_start > 0
    setup = initialize_case(CaseConfig(init_mode="uniform", n_cells=16, dt=1e-5,
                                       t_start=0.0, t_end=1e-4))
    assert setup.n_steps == 10


# ---------------------------------------------------------------------------
# case setup


def test_initialize_case_benchmark_structure():
    setup = initialize_case(CaseConfig())
    state = setup.state
    # the step count divides the time span exactly
    assert setup.n_steps == 168
    assert setup.t_initial + setup.n_steps * setup.dt == pytest.approx(0.005, abs=1e-18)
    assert state.u[0] == 0.0 and state.u[-1] == 0.0
    assert state.grid.n_cells == 250
    # the starting density satisfies the mass balance against rho_prev
    div = np.diff(state.flux)
    res = state.grid.cell_volumes * (state.rho - state.rho_prev) / state.dt + div
    assert np.max(np.abs(res)) < 1e-9 * np.max(np.abs(state.flux))
    assert np.array_equal(state.flux, primal_mass_flux(state.rho, state.u))
    check_state_gates(state)
    # flame-speed product defaults to the oracle value
    assert setup.chem_config.flame_speed_product == pytest.approx(
        setup.pattern.flame_speed_product)


def test_gate_violations_raise():
    setup = initialize_case(CaseConfig(n_cells=24))
    state = setup.state

    bad = state.y_F.copy()
    bad[3] += 1e-6
    state.y_F = bad
    with pytest.raises(StepFailure, match="sum"):
        check_state_gates(state)
    state = initialize_case(CaseConfig(n_cells=24)).state
    state.y_F[5] = -1e-6  # negative, with the sum repaired through y_P
    state.y_P[5] = 1.0 - state.y_F[5] - state.y_O[5] - state.y_N[5]
    with pytest.raises(StepFailure, match="y_F"):
        check_state_gates(state)

    state = initialize_case(CaseConfig(n_cells=24)).state
    state.rho[0] = -1.0
    with pytest.raises(StepFailure, match="density"):
        check_state_gates(state)

    state = initialize_case(CaseConfig(n_cells=24)).state
    state.h_s[0] = 0.5 * state.p[0] / state.rho[0]  # below p / rho
    with pytest.raises(StepFailure, match="sensible"):
        check_state_gates(state)


@pytest.mark.parametrize("field", ["y_F", "G", "rho", "e_s"])
def test_gates_reject_nan(field):
    # NaN, inf and -inf each fail the min/max test of the field and are then
    # named by cell
    for value in (np.nan, np.inf, -np.inf):
        state = initialize_case(CaseConfig(n_cells=24)).state
        if field == "e_s":
            state.h_s[4] = value  # e_s = h_s - p / rho is derived
        else:
            getattr(state, field)[4] = value
        with pytest.raises(StepFailure, match=rf"^{field} is not finite in cell 4"):
            check_state_gates(state)


def admissible_state(rho, p, u_interior, y_F, y_O, y_N, G, acoustic_cfl):
    """A state on the unit interval inside every gate, with a balanced mass
    level, stepped at the given acoustic CFL (c + |u|) dt / h."""
    rho, p, y_F, y_O, y_N, G = (np.asarray(v, dtype=float)
                                for v in (rho, p, y_F, y_O, y_N, G))
    n = rho.shape[0]
    mix = benchmark_mixture()
    grid = build_uniform_grid(n, 0.0, 1.0)
    u = np.zeros(n + 1)
    u[1:-1] = u_interior
    y = (y_F, y_O, y_N, 1.0 - y_F - y_O - y_N)
    h_s = mix.gamma / (mix.gamma - 1.0) * p / rho
    speed = np.max(np.sqrt(mix.gamma * p / rho)) + np.max(np.abs(u))
    return make_state(grid, mix, acoustic_cfl * grid.h / speed, rho, u, h_s,
                      y, G)


@st.composite
def admissible_states(draw):
    """A small random state inside every gate, with a balanced mass level."""
    n = draw(st.integers(min_value=4, max_value=12))

    def cells(lo, hi, size=n):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size,
                                      max_size=size)))

    rho = cells(0.3, 2.0)
    p = cells(5.0e4, 2.0e5)
    u = cells(-60.0, 60.0, n - 1)
    y_F = cells(0.0, 0.05)
    y_O = cells(0.0, 0.3)
    y_N = cells(0.3, 0.6)
    G = cells(0.0, 1.0)
    # acoustic CFL up to 2; the benchmark runs at about 1.2
    return admissible_state(rho, p, u, y_F, y_O, y_N, G,
                            draw(st.floats(0.05, 2.0)))


# Oxidant-free cells next to oxidant: y_O left [0, 1] here under MUSCL and
# anti-diffusive faces while its faces were derived from separately limited
# z and y_F faces.
_OXIDANT_FREE = admissible_state(
    rho=[1.48, 1.12, 1.01, 1.8, 1.81],
    p=[1.44e5, 7.4e4, 8.4e4, 1.31e5, 1.18e5],
    u_interior=[10.0, 12.0, 51.0, 33.0],
    y_F=[0.017, 0.021, 0.034, 0.001, 0.008],
    y_O=[0.07, 0.0, 0.0, 0.07, 0.04],
    y_N=[0.38, 0.31, 0.48, 0.57, 0.57],
    G=[0.35, 0.24, 0.98, 0.81, 0.25],
    acoustic_cfl=0.28,
)

# None is implicit upwind transport; the rest are explicit face schemes
_TRANSPORTS = [None, ("upwind", "opposite_cells")] + [
    (scheme, policy) for scheme in ("muscl", "antidiffusive")
    for policy in ("opposite_cells", "upstream_cells")]


@settings(max_examples=60, deadline=None)
@given(state=admissible_states(),
       transport=st.sampled_from(_TRANSPORTS),
       flame_speed_product=st.floats(0.0, 50.0))
@example(state=_OXIDANT_FREE, transport=("muscl", "opposite_cells"),
         flame_speed_product=10.0)
@example(state=_OXIDANT_FREE, transport=("antidiffusive", "opposite_cells"),
         flame_speed_product=10.0)
def test_one_step_keeps_gates_mass_and_energy(state, transport,
                                              flame_speed_product):
    # every face scheme keeps every fraction in [0, 1] on any admissible
    # state; explicit transport only within its material CFL bound of 1
    if transport is None:
        chem = ChemStepConfig(epsilon_per_h=1e-2,
                              flame_speed_product=flame_speed_product)
    else:
        assume(cfl_number(state.flux, state.rho, state.dt, state.grid) <= 1.0)
        scheme, policy = transport
        chem = ChemStepConfig(epsilon_per_h=1e-2,
                              flame_speed_product=flame_speed_product,
                              time_mode="explicit-limited",
                              limiter=LimiterParams(scheme=scheme,
                                                    neighbor_policy=policy))
    check_state_gates(state)
    new_state, _ = advance(state, chem, CorrectionSolveConfig())
    check_state_gates(new_state)
    vol = state.grid.cell_volumes
    mass = np.sum(vol * state.rho)
    assert abs(np.sum(vol * new_state.rho) - mass) <= 1e-14 * mass
    e0 = total_energy(state)
    assert abs(total_energy(new_state) - e0) <= 1e-12 * abs(e0)


def test_explicit_mode_gates_the_material_cfl():
    # dt stays fixed after setup; at 40 cells dt = 1.5e-4 starts the
    # explicit chemistry step at a material CFL of 1.05
    cfg = dict(n_cells=40, dt=1.5e-4, t_end=0.0026)
    with pytest.raises(StepFailure, match=r"material CFL 1\.05\d* exceeds 1"):
        run_case(CaseConfig(time_mode="explicit-limited", **cfg))
    # implicit transport has no such bound
    assert run_case(CaseConfig(**cfg)).n_steps == 4


def test_advance_info_contract():
    setup = initialize_case(CaseConfig(n_cells=40))
    new_state, info = advance(setup.state, setup.chem_config, setup.solver_config)
    for key in ("cfl", "correction_residual", "correction_iterations",
                "kinetic_residual_total", "max_sum_y_error",
                "chem_face_values", "compensation_source", "omega_theta"):
        assert key in info
    assert info["correction_residual"] <= setup.solver_config.nonlinear_tol
    assert info["max_sum_y_error"] <= 1e-10
    assert new_state.dt == setup.state.dt
    assert new_state.rho_prev is setup.state.rho


# ---------------------------------------------------------------------------
# runs and errors


def test_run_case_small_benchmark():
    cfg = CaseConfig(n_cells=60, t_end=0.0026)
    result = run_case(cfg)
    assert result.t_final == pytest.approx(0.0026, rel=1e-15)
    assert len(result.diagnostics) == result.n_steps
    assert result.energy_drift_rel < 1e-10
    assert set(result.errors) == {"p", "u", "rho", "y_F", "G", "T"}
    last = result.diagnostics[-1]
    assert last["step"] == result.n_steps
    assert last["used_fallback"] == 0
    assert last["max_sum_y_error"] <= 1e-10
    assert -1e-10 <= last["min_G"] and last["max_G"] <= 1.0 + 1e-10


def test_l1_error_decreases_with_mesh():
    coarse = run_case(CaseConfig(n_cells=40, t_end=0.003), collect_diagnostics=False)
    fine = run_case(CaseConfig(n_cells=160, t_end=0.003), collect_diagnostics=False)
    for f in ("p", "u", "rho"):
        assert fine.errors[f] < coarse.errors[f]


def test_l1_error_zero_for_exact_state():
    setup = initialize_case(CaseConfig(n_cells=30))
    state = setup.state
    # overwrite with the exact averages the initialiser sampled from
    from stagflame.oracle import exact_cell_averages, exact_dual_averages
    cells = exact_cell_averages(setup.pattern, state.grid, 0.002, 0.0)
    duals = exact_dual_averages(setup.pattern, state.grid, 0.002, 0.0)
    state.rho = cells["rho"]
    state.p = cells["p"]
    state.u = np.asarray(duals["u"])
    state.y_F = cells["y_F"]
    state.G = cells["G"]
    state.h_s = state.mixture.gamma * cells["p"] / (
        (state.mixture.gamma - 1.0) * cells["rho"])
    errs = l1_error(state, setup.pattern, 0.002)
    assert errs["rho"] == 0.0
    assert errs["u"] == 0.0
    assert errs["p"] == 0.0
    assert errs["G"] == 0.0
    # T is reconstructed through the equation of state, which does not
    # commute with cell averaging in cells containing a front
    assert errs["T"] < 100.0


def test_burnt_zone_distance():
    setup = initialize_case(CaseConfig(init_mode="uniform", n_cells=20, dt=1e-5))
    state = setup.state
    # everything fresh: the burnt zone is empty
    assert burnt_zone_asymptotic_distance(state) == 0.0
    # mark everything burnt while leaving the fresh composition in place:
    # the unburnt fuel and oxidiser and the missing product each count
    state.G = np.zeros_like(state.G)
    want = 2.0 * (state.y_F[0] + state.y_O[0]) * (4.5 - 0.0)
    assert burnt_zone_asymptotic_distance(state) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# outputs


def test_runs_are_deterministic(tmp_path):
    cfg = CaseConfig(n_cells=30, t_end=0.0024)
    blobs = []
    for tag in ("a", "b"):
        write_run_csvs(tmp_path / tag, run_case(cfg))
        blobs.append(((tmp_path / f"{tag}_profile.csv").read_bytes(),
                      (tmp_path / f"{tag}_diag.csv").read_bytes()))
    assert blobs[0] == blobs[1]


def test_profile_csv_layout(tmp_path):
    cfg = CaseConfig(n_cells=12, t_end=0.0021)
    result = run_case(cfg, collect_diagnostics=False)
    write_run_csvs(tmp_path / "out", result)
    lines = (tmp_path / "out_profile.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# n_cells = 12") for l in header)
    assert any(l.startswith("# limiter = upwind") for l in header)
    body = [l for l in lines if not l.startswith("#")]
    cols = body[0].split(",")
    assert cols[0] == "x_center"
    assert {"rho", "p", "T", "y_F", "G", "z"} <= set(cols)
    assert len(body) == 1 + 12
    first = dict(zip(cols, map(float, body[1].split(","))))
    assert first["x_center"] == pytest.approx(4.5 / 12 / 2)


def test_sweep_rows_and_report(tmp_path):
    cfg = CaseConfig(t_end=0.0024, time_mode="explicit-limited")
    reports = run_sweep(cfg, meshes=[24, 48], schemes=["upwind", "muscl"])
    assert set(reports) == {"upwind", "muscl"}
    up = reports["upwind"]
    assert up.scheme == "upwind"
    assert up.meshes == [24, 48]
    assert up.h[0] == pytest.approx(4.5 / 24)
    # errors and per-mesh companions line up with the mesh list
    assert len(up.errors["rho"]) == 2
    assert len(up.asymptotic_distance) == 2
    assert len(up.orders["rho"]) == 1
    for key in ("gamma", "cfl", "epsilon_per_h", "dt_per_mesh"):
        assert key in up.metadata
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, {"upwind": up})
    rows = path.read_text().splitlines()
    head = rows[0].split(",")
    assert head[:5] == ["scheme", "n_cells", "h", "wall_time",
                        "asymptotic_distance"]
    assert "err_rho" in head and "order_u" in head
    assert len(rows) == 3
    assert rows[1].split(",")[0] == "upwind"
    # the second mesh row carries no order entry of its own
    assert rows[2].split(",")[-1] == ""
    text = up.to_text()
    assert "scheme = upwind" in text
    assert "ls" in text and "burnt-zone distance" in text
