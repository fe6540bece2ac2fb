import dataclasses
import gc
import math
import re
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stagflame import chemistry, harness, thermo
from stagflame.chemistry import ChemStepConfig
from stagflame.errors import ConfigError, StepFailure, require_fraction
from stagflame.harness import (
    CaseConfig,
    advance,
    burnt_zone_asymptotic_distance,
    check_state_gates,
    initialize_case,
    l1_error,
    load_config,
    observed_orders,
    parse_config_text,
    run_case,
    run_sweep,
    sweep_report,
    sweep_text,
    write_csv,
    write_run_csvs,
    write_sweep_csv,
)
from stagflame import hydro
from stagflame.hydro import total_energy
from stagflame.thermo import FieldState, pressure_from_state
from stagflame.transport import (
    SCHEMES,
    cfl_number,
    dual_density,
    pressure_gradient,
    primal_mass_flux,
)
from helpers import admissible_state, admissible_states

ROOT = Path(__file__).resolve().parents[1]


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
    # a key set twice is refused, not overwritten by its last value
    with pytest.raises(ConfigError,
                       match="^line 4: 'n_cells' is already set on line 2$"):
        parse_config_text("# mesh\nn_cells = 20\ncfl = 0.5\n n_cells = 30\n")


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        CaseConfig.from_dict({"n_cels": "60"})


def test_from_dict_rejects_bad_literals():
    with pytest.raises(ConfigError, match="integer"):
        CaseConfig.from_dict({"n_cells": "sixty"})
    with pytest.raises(ConfigError, match="number"):
        CaseConfig.from_dict({"gamma": "fast"})
    # an integer too large for a float
    with pytest.raises(ConfigError, match="number"):
        CaseConfig.from_dict({"gamma": 10**400})


@pytest.mark.parametrize("raw", [12.7, 12.0, np.float64(12.0), True, "12.7",
                                 None, [12]],
                         ids=["float", "integral-float", "numpy-float", "bool",
                              "float-string", "none", "list"])
def test_from_dict_refuses_a_non_integer_for_an_integer_key(raw):
    # a float is refused, not truncated, whether it comes as a number or as
    # a string, and a bool is not taken for 0 or 1
    with pytest.raises(ConfigError, match="'n_cells' needs an integer"):
        CaseConfig.from_dict({"n_cells": raw})


@pytest.mark.parametrize("raw", [12, np.int64(12), np.int32(12), " 12 "])
def test_from_dict_takes_integers_for_an_integer_key(raw):
    config = CaseConfig.from_dict({"n_cells": raw})
    assert config.n_cells == 12 and type(config.n_cells) is int


def test_from_dict_strips_a_padded_string_value():
    config = CaseConfig.from_dict({"time_mode": " explicit-limited\t",
                                   "limiter": "  muscl "})
    assert (config.time_mode, config.limiter) == ("explicit-limited", "muscl")


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


def test_config_docs_name_every_key():
    # the README's key table names exactly the CaseConfig fields, and the
    # shipped config sets all of them but dt, the alternative to cfl
    keys = {f.name for f in dataclasses.fields(CaseConfig)}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = [name for line in section.splitlines() if line.startswith("| `")
                  for name in re.findall(r"`(\w+)`", line.split("|")[1])]
    assert sorted(documented) == sorted(keys)
    shipped = parse_config_text(
        (ROOT / "configs" / "benchmark.cfg").read_text(encoding="utf-8"))
    assert set(shipped) == keys - {"dt"}


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
    # each closed upper bound admits the bound itself, and nothing past it
    CaseConfig(molar_F=1.0, molar_O=0.0)
    assert CaseConfig(n_cells=10**6).n_cells == 10**6
    assert CaseConfig(time_mode="explicit-limited", cfl=1.0).cfl == 1.0
    with pytest.raises(ConfigError, match=r"\(0, 1\]"):
        CaseConfig(time_mode="explicit-limited", cfl=math.nextafter(1.0, 2.0))
    assert CaseConfig().cfl == 0.8
    assert CaseConfig().epsilon_per_h == 1e-2


def test_choice_keys_are_checked_when_the_config_is_built():
    with pytest.raises(ConfigError, match="unknown time_mode 'bogus'"):
        CaseConfig(time_mode="bogus")
    explicit = CaseConfig(time_mode="explicit-limited")
    with pytest.raises(ConfigError, match="unknown limiter 'bogus', expected "
                                          "one of upwind, muscl, antidiffusive"):
        dataclasses.replace(explicit, limiter="bogus")
    assert dataclasses.replace(explicit, limiter="muscl").limiter == "muscl"


# A flame that neither moves nor releases heat: the exact solution is the
# fresh gas at rest: the burnt zone never leaves the left wall.
_STATIC_FLAME = dict(u_flame=0.0, dh_P=0.0)


def test_uniform_init_needs_explicit_dt():
    # a gas at rest carries no flux to derive a CFL step from
    with pytest.raises(ConfigError, match="zero initial flux"):
        initialize_case(CaseConfig(n_cells=16, **_STATIC_FLAME))
    setup = initialize_case(CaseConfig(n_cells=16, dt=1e-5, **_STATIC_FLAME))
    assert np.all(setup.state.u == 0.0)
    assert np.all(setup.state.G == 1.0)
    assert np.all(setup.state.y_P == 0.0)


# ---------------------------------------------------------------------------
# case setup


def test_initialize_case_benchmark_structure():
    config = CaseConfig()
    setup = initialize_case(config)
    state = setup.state
    # the step count divides the time span exactly
    assert setup.n_steps == 168
    assert (config.t_start + setup.n_steps * state.dt
            == pytest.approx(0.005, abs=1e-18))
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
    # the chemical time is epsilon_per_h times the cell size
    assert setup.chem_config.epsilon == 1e-2 * state.grid.h


def test_a_case_may_take_exactly_max_steps():
    # a fixed dt that covers the span in MAX_STEPS steps is set up (and
    # not stepped); one step more is refused, and the message names the
    # count it refuses, not one that rounds down to the cap
    span = CaseConfig().t_end - CaseConfig().t_start
    setup = initialize_case(CaseConfig(n_cells=24, dt=span / harness.MAX_STEPS))
    assert setup.n_steps == harness.MAX_STEPS
    with pytest.raises(ConfigError, match="more than 10000000$") as refused:
        initialize_case(CaseConfig(n_cells=24,
                                   dt=span / (harness.MAX_STEPS + 1)))
    assert "needs 10000001 steps" in str(refused.value)
    # the smallest double makes the count infinite, which is refused too
    with pytest.raises(ConfigError, match="needs inf steps"):
        initialize_case(CaseConfig(n_cells=24, dt=5e-324))


def test_the_shock_must_stay_inside_the_domain_by_t_end():
    # a shock that reaches x_right exactly by t_end is refused, and the
    # next double up is a domain that holds it
    config = CaseConfig(n_cells=24)
    x_shock = float(harness.case_pattern(config).s_shock) * config.t_end
    with pytest.raises(ConfigError, match="at or past x_right"):
        initialize_case(dataclasses.replace(config, x_right=x_shock))
    initialize_case(dataclasses.replace(
        config, x_right=math.nextafter(x_shock, math.inf)))


@settings(max_examples=60, deadline=None)
@given(state=admissible_states())
def test_balanced_levels_close_the_mass_balance(state):
    # every level balanced_level builds, not only the benchmark's start,
    # closes |K|/dt (rho - rho_prev) + F_right - F_left = 0 to round-off
    # and carries the EOS pressure of its density
    mass = state.grid.cell_volumes / state.dt
    res = mass * (state.rho - state.rho_prev) + np.diff(state.flux)
    scale = (mass * state.rho).max() + np.abs(state.flux).max()
    assert np.abs(res).max() <= 1e-14 * scale
    assert np.array_equal(state.p, pressure_from_state(
        state.rho, state.h_s, state.mixture.gamma))


def _with_cell(state, **cells):
    """A copy of ``state`` with ``field=(cell, value)`` set in each field;
    ``dataclasses.replace`` builds the level's arrays from the new fields."""
    changes = {}
    for name, (cell, value) in cells.items():
        changes[name] = getattr(state, name).copy()
        changes[name][cell] = value
    return dataclasses.replace(state, **changes)


def test_gate_violations_raise():
    state = initialize_case(CaseConfig(n_cells=24)).state

    bad = _with_cell(state, y_F=(3, state.y_F[3] + 1e-6))
    with pytest.raises(StepFailure, match="sum"):
        check_state_gates(bad)
    # negative, with the sum repaired through y_P
    y_F = -1e-6
    bad = _with_cell(state, y_F=(5, y_F),
                     y_P=(5, 1.0 - y_F - state.y_O[5] - state.y_N[5]))
    with pytest.raises(StepFailure, match="y_F"):
        check_state_gates(bad)

    with pytest.raises(StepFailure, match="density"):
        check_state_gates(_with_cell(state, rho=(0, -1.0)))

    # below p / rho
    bad = _with_cell(state, h_s=(0, 0.5 * state.p[0] / state.rho[0]))
    with pytest.raises(StepFailure, match="sensible"):
        check_state_gates(bad)


def test_fraction_gate_bounds_are_inclusive():
    # the gate admits 1e-10 past either end of [0, 1], and nothing beyond
    for lo, hi in ((-1e-10, 0.5), (0.5, 1.0 + 1e-10)):
        require_fraction("y_F", np.array([lo, hi]))
    for value in (math.nextafter(-1e-10, -math.inf),
                  math.nextafter(1.0 + 1e-10, math.inf)):
        with pytest.raises(StepFailure, match="y_F left"):
            require_fraction("y_F", np.array([0.5, value]))


@pytest.mark.parametrize("field", ["y_F", "G", "rho", "e_s"])
def test_gates_reject_nan(field):
    # NaN, inf and -inf each fail the min/max test of the field and are then
    # named by cell
    state = initialize_case(CaseConfig(n_cells=24)).state
    for value in (np.nan, np.inf, -np.inf):
        # the level derives e_s = h_s - p / rho
        changed = "h_s" if field == "e_s" else field
        bad = _with_cell(state, **{changed: (4, value)})
        with pytest.raises(StepFailure, match=rf"^{field} is not finite in cell 4"):
            check_state_gates(bad)


@pytest.mark.parametrize("field,value,message", [
    ("rho", 0.0, r"^non-positive density 0\.000e\+00$"),
    ("p", np.nan, r"^e_s is not finite in cell 3"),
    ("p", np.inf, r"^e_s is not finite in cell 3"),
    ("p", -np.inf, r"^e_s is not finite in cell 3"),
])
def test_rejected_levels_build_without_warnings(field, value, message):
    # under the suite's warnings-as-errors, a numpy warning while the level
    # builds its arrays would end the test before the gate names the cell
    state = initialize_case(CaseConfig(n_cells=24)).state
    with pytest.raises(StepFailure, match=message):
        check_state_gates(_with_cell(state, **{field: (3, value)}))


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
_TRANSPORTS = [None, "upwind", "muscl", "antidiffusive"]


@settings(max_examples=60, deadline=None)
@given(state=admissible_states(),
       transport=st.sampled_from(_TRANSPORTS),
       flame_speed_product=st.floats(0.0, 50.0))
@example(state=_OXIDANT_FREE, transport="muscl", flame_speed_product=10.0)
@example(state=_OXIDANT_FREE, transport="antidiffusive",
         flame_speed_product=10.0)
def test_one_step_keeps_gates_mass_and_energy(state, transport,
                                              flame_speed_product):
    # every face scheme keeps every fraction in [0, 1] on any admissible
    # state; explicit transport only within its material CFL bound of 1
    if transport is not None:
        assume(cfl_number(state.flux, state.rho, state.dt, state.grid) <= 1.0)
    chem = ChemStepConfig(epsilon=1e-2 * state.grid.h,
                          flame_speed_product=flame_speed_product,
                          limiter=transport)
    check_state_gates(state)
    new_state, _ = advance(state, chem)
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


def test_advance_info_contract(monkeypatch):
    setup = initialize_case(CaseConfig(n_cells=40))
    # each fraction is gated once per step, by chemistry_step
    gated = []

    def counting(name, values):
        gated.append(name)
        return require_fraction(name, values)

    monkeypatch.setattr(chemistry, "require_fraction", counting)
    monkeypatch.setattr(harness, "require_fraction", counting)
    new_state, info = advance(setup.state, setup.chem_config)
    assert gated == ["G", "y_F", "y_O", "y_N", "y_P"]
    assert set(info) == {"chemistry", "flow", "max_sum_y_error"}
    flow = info["flow"]
    assert isinstance(flow, hydro.FlowResult)
    assert flow.residual <= hydro._NONLINEAR_TOL
    assert info["max_sum_y_error"] <= 1e-10
    # the new level is built from the flow result's arrays, not copies
    assert new_state.rho is flow.rho and new_state.flux is flow.flux
    assert new_state.dt == setup.state.dt
    # the starting level's density and its dual density are the new
    # level's previous-level ones
    assert new_state.rho_prev is setup.state.rho
    assert new_state.rho_d_prev is setup.state.rho_d


def _corrupt_rho(flow):
    flow.rho[2] = -1.0


def _corrupt_e_s(flow):
    flow.h_s[2] = 0.5 * flow.p[2] / flow.rho[2]  # e_s = h_s - p / rho < 0


def _drift_sum(chem):
    chem.y_N[2] += 1e-6  # inside [0, 1], so only the sum gate sees it


@pytest.mark.parametrize("stage,corrupt,message", [
    ("euler_step", _corrupt_rho, r"non-positive density -1\.000e\+00"),
    ("euler_step", _corrupt_e_s, r"non-positive sensible energy -\d\.\d{3}e\+\d\d"),
    ("chemistry_step", _drift_sum,
     r"mass fractions sum drifted from 1 by 1\.000e-06"),
])
def test_advance_gates_rho_e_s_and_the_fraction_sum(monkeypatch, stage,
                                                    corrupt, message):
    # the flow fields and the fraction sum of the new state are gated in
    # advance; a run names the step that failed and the time it started from
    config = CaseConfig(n_cells=24)
    setup = initialize_case(config)
    original = getattr(harness, stage)
    calls = []

    def corrupting(*args):
        result = original(*args)
        calls.append(1)
        if len(calls) == 3:
            corrupt(result)
        return result

    monkeypatch.setattr(harness, stage, corrupting)
    state = setup.state
    for _ in range(2):
        state, _ = advance(state, setup.chem_config)
    with pytest.raises(StepFailure, match=rf"^{message}$"):
        advance(state, setup.chem_config)
    calls.clear()
    t_from = config.t_start + 2 * setup.state.dt
    with pytest.raises(StepFailure,
                       match=rf"^step 3 \(t = {t_from:.9g}\): {message}$"):
        run_case(config)


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


def test_diagnostics_are_one_record_per_step(tmp_path):
    # the records carry the _diag.csv columns in order, 112 bytes a step
    cfg = CaseConfig(n_cells=40, t_end=0.0024)
    result = run_case(cfg)
    diag = result.diagnostics
    write_run_csvs(tmp_path / "run", result)
    header = [line for line in (tmp_path / "run_diag.csv").read_text().splitlines()
              if not line.startswith("#")][0]
    assert diag.dtype.names == tuple(header.split(","))
    ints = ("step", "correction_iterations", "used_fallback")
    assert all(diag.dtype[name] == np.int64 for name in ints)
    assert all(diag.dtype[name] == np.float64
               for name in diag.dtype.names if name not in ints)
    assert diag.dtype.itemsize == 112
    assert diag.shape == (result.n_steps,)
    assert diag["step"].tolist() == list(range(1, result.n_steps + 1))
    assert (diag["dt"] == result.state.dt).all()
    assert not diag["used_fallback"].any()
    assert diag[-1]["energy_drift_rel"] == result.energy_drift_rel


def test_a_run_audits_the_start_and_each_step(monkeypatch):
    # the starting level and each new level are audited once; the drift the
    # result keeps is the last step's, with no audit of its own
    cfg = CaseConfig(n_cells=40, t_end=0.0024)
    audits = []

    def counting(*args):
        audits.append(args[0])
        return total_energy(*args)

    monkeypatch.setattr(harness, "total_energy", counting)
    result = run_case(cfg)
    assert len(audits) == 1 + result.n_steps
    assert audits[-1] is result.state
    assert result.energy_drift_rel == result.diagnostics[-1]["energy_drift_rel"]
    assert type(result.energy_drift_rel) is float


def test_a_run_holds_one_level_and_one_step_of_results(monkeypatch):
    # when step k starts, every level handed to an earlier step (the
    # starting one from step 2 on) and the stage results of step k - 1 are
    # unreachable; with the cycle collector off, they must already be freed
    handed, stages, returned = [], [], []

    def recording(state, chem_config):
        assert all(ref() is None for ref in handed), "an earlier level is held"
        assert all(ref() is None for ref in stages), "a stage result is held"
        handed.append(weakref.ref(state))
        new_state, info = advance(state, chem_config)
        stages.extend(weakref.ref(info[k]) for k in ("chemistry", "flow"))
        returned.append(weakref.ref(new_state))
        return new_state, info

    monkeypatch.setattr(harness, "advance", recording)
    config = load_config(ROOT / "configs" / "benchmark.cfg", ["t_end=0.0021"])
    gc.disable()
    try:
        result = run_case(config)
    finally:
        gc.enable()
    assert len(handed) == result.n_steps >= 5
    assert all(ref() is None for ref in handed + stages)
    # the final level stays in the result
    assert returned[-1]() is result.state


@pytest.mark.parametrize("limiter", SCHEMES)
def test_the_flow_step_holds_no_face_values(monkeypatch, limiter):
    # the faces an explicit step convected are let go when chemistry_step
    # returns: when a step's correction solve starts, no array face_values
    # returned during that step is reachable
    returned, seen = [], []
    face_values, solve = chemistry.face_values, hydro.correction_solve

    def recording(*args):
        values = face_values(*args)
        returned.append(weakref.ref(values))
        return values

    def checking(*args):
        seen.append((len(returned), sum(ref() is not None for ref in returned)))
        returned.clear()
        return solve(*args)

    monkeypatch.setattr(chemistry, "face_values", recording)
    monkeypatch.setattr(hydro, "correction_solve", checking)
    config = CaseConfig(n_cells=40, t_end=0.0024, time_mode="explicit-limited",
                        limiter=limiter)
    gc.disable()
    try:
        result = run_case(config)
    finally:
        gc.enable()
    assert result.n_steps >= 4
    assert seen == [(4, 0)] * result.n_steps


_SIX_STEP_CASES = [
    dict(t_end=0.0021),  # the implicit-250 benchmark case, six steps of it
    dict(n_cells=200, t_end=0.0021, time_mode="explicit-limited",
         limiter="antidiffusive"),
]


@pytest.mark.parametrize("overrides", _SIX_STEP_CASES)
def test_audited_energy_equals_a_fresh_total_energy(monkeypatch, overrides):
    # the audit reads the level's arrays; from a level rebuilt from its
    # fields alone, every step's energy must come out bit for bit the same
    states = []

    def recording(*args):
        new_state, info = advance(*args)
        states.append(new_state)
        return new_state, info

    monkeypatch.setattr(harness, "advance", recording)
    result = run_case(CaseConfig(**overrides))
    assert len(states) == len(result.diagnostics) == result.n_steps >= 5
    for state, row in zip(states, result.diagnostics):
        assert row["energy_total"] == total_energy(dataclasses.replace(state))


_FIELDS = ("rho_prev", "rho", "u", "p", "h_s", "flux", "y_F", "y_O", "y_N",
           "y_P", "z", "G")


def _level_arrays_equal_fresh_ones(state):
    grid = state.grid
    fresh = {
        "rho_d": dual_density(grid, state.rho),
        "rho_d_prev": dual_density(grid, state.rho_prev),
        "grad_p": pressure_gradient(state.p, grid),
        "e_s": state.h_s - state.p / state.rho,
    }
    for name, want in fresh.items():
        assert getattr(state, name).tobytes() == want.tobytes(), name
    assert state.cfl == cfl_number(state.flux, state.rho, state.dt, grid)


@pytest.mark.parametrize("overrides", _SIX_STEP_CASES)
def test_level_arrays_equal_fresh_ones(monkeypatch, overrides):
    # each level builds its arrays once and takes its previous-level dual
    # density from the level before; built from the fields alone, they must
    # come out bit for bit the same, and so must the step from the level
    # rebuilt by dataclasses.replace
    levels = []

    def recording(state, chem_config):
        levels.append(state)
        new_state, info = advance(state, chem_config)
        fresh_state, _ = advance(dataclasses.replace(state), chem_config)
        for name in _FIELDS:
            assert (getattr(fresh_state, name).tobytes()
                    == getattr(new_state, name).tobytes()), name
        return new_state, info

    monkeypatch.setattr(harness, "advance", recording)
    result = run_case(CaseConfig(**overrides))
    levels.append(result.state)
    assert len(levels) == result.n_steps + 1 >= 6
    for state in levels:
        _level_arrays_equal_fresh_ones(state)
    for before, after in zip(levels, levels[1:]):
        assert after.rho_d_prev is before.rho_d


@pytest.mark.parametrize("overrides", _SIX_STEP_CASES)
def test_no_step_writes_into_a_level(monkeypatch, overrides):
    # a level's arrays are never written after construction: with every
    # array of every level read-only, a run must go through and come out
    # bit for bit the same
    want = run_case(CaseConfig(**overrides))
    built = []

    def read_only(*args, **kwargs):
        state = FieldState(*args, **kwargs)
        for value in vars(state).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        built.append(state)
        return state

    monkeypatch.setattr(harness, "FieldState", read_only)
    got = run_case(CaseConfig(**overrides))
    assert len(built) == got.n_steps + 1
    assert not got.state.rho_d.flags.writeable
    for name in _FIELDS:
        assert (getattr(got.state, name).tobytes()
                == getattr(want.state, name).tobytes()), name
    assert got.diagnostics.tobytes() == want.diagnostics.tobytes()
    assert got.errors == want.errors


@pytest.mark.parametrize("overrides", _SIX_STEP_CASES)
def test_no_scalar_writes_into_the_arrays_of_its_step(monkeypatch, overrides):
    # every scalar of a chemistry step reads the step's masses, band and
    # face stencil: with all of them read-only, a run must go through and
    # come out bit for bit the same
    want = run_case(CaseConfig(**overrides))
    frozen = []

    def read_only(build):
        def wrapper(*args, **kwargs):
            shared = build(*args, **kwargs)
            for value in vars(shared).values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            frozen.append(type(shared).__name__)
            return shared
        return wrapper

    monkeypatch.setattr(chemistry, "_scalar_step",
                        read_only(chemistry._scalar_step))
    monkeypatch.setattr(chemistry, "face_stencil",
                        read_only(chemistry.face_stencil))
    got = run_case(CaseConfig(**overrides))
    explicit = overrides.get("time_mode") == "explicit-limited"
    assert frozen.count("_ScalarStep") == got.n_steps
    assert frozen.count("FaceStencil") == (got.n_steps if explicit else 0)
    for name in _FIELDS:
        assert (getattr(got.state, name).tobytes()
                == getattr(want.state, name).tobytes()), name
    assert got.diagnostics.tobytes() == want.diagnostics.tobytes()
    assert got.errors == want.errors


@pytest.mark.parametrize("name", ["p", "h_s", "rho_prev"])
def test_replace_rebuilds_the_level_arrays(name):
    # a level made by a step, whose previous-level dual density was handed
    # over; replacing a field rebuilds every array from the new fields
    setup = initialize_case(CaseConfig(n_cells=40))
    state, _ = advance(setup.state, setup.chem_config)
    values = getattr(state, name).copy()
    values[:20] *= 1.25
    changed = dataclasses.replace(state, **{name: values})
    _level_arrays_equal_fresh_ones(changed)
    derived = {"p": "grad_p", "h_s": "e_s", "rho_prev": "rho_d_prev"}[name]
    assert not np.array_equal(getattr(changed, derived), getattr(state, derived))


@pytest.mark.parametrize("time_mode", ["implicit-upwind", "explicit-limited"])
def test_each_step_builds_each_level_array_once(monkeypatch, time_mode):
    # each step builds the dual density, the pressure gradient and the CFL
    # of its new level once, and its energy audit builds none; the starting
    # level builds its previous-level dual density too.  An explicit step
    # makes four face_values calls (G, y_O, y_N, y_F), an implicit one none,
    # and the species faces of either are rebuilt only when asked for
    events = []
    last = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            events.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((thermo, "dual_density"), (thermo, "pressure_gradient"),
                         (thermo, "cfl_number"), (chemistry, "face_values")):
        counting(module, name)

    def stepping(state, chem_config):
        events.append("step")
        last["state"] = state
        new_state, last["info"] = advance(state, chem_config)
        return new_state, last["info"]

    monkeypatch.setattr(harness, "advance", stepping)
    result = run_case(CaseConfig(n_cells=40, t_end=0.0024,
                                 time_mode=time_mode))
    assert result.n_steps >= 4
    start, *steps = " ".join(events).split("step")
    assert sorted(start.split()) == ["cfl_number", "dual_density",
                                     "dual_density", "pressure_gradient"]
    assert len(steps) == result.n_steps
    face_calls = 0 if time_mode == "implicit-upwind" else 4
    for step in steps:
        assert sorted(step.split()) == sorted(
            ["cfl_number", "dual_density", "pressure_gradient"]
            + ["face_values"] * face_calls)
    events.clear()
    faces = chemistry.species_faces(last["state"], last["info"]["chemistry"])
    assert set(faces) == {"z", "y_F", "y_O", "y_N", "y_P"}
    assert events == ["face_values"] * 3


@pytest.mark.parametrize("field,cell", [("u", 7), ("p", 7), ("p", 0)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_velocity_or_pressure_fails_the_step(field, cell, value):
    # the prediction does not scan its inputs; a non-finite face velocity or
    # cell pressure ends in the correction solve's finiteness test, without
    # a numpy warning on the way
    setup = initialize_case(CaseConfig(n_cells=40))
    state = _with_cell(setup.state, **{field: (cell, value)})
    with pytest.raises(StepFailure, match="non-finite Newton step"):
        advance(state, setup.chem_config)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_wall_velocity_does_not_enter_the_step(value):
    # the prediction keeps the wall velocities at zero whatever state.u holds
    setup = initialize_case(CaseConfig(n_cells=40))
    want, _ = advance(setup.state, setup.chem_config)
    u = setup.state.u.copy()
    u[[0, -1]] = value
    got, _ = advance(dataclasses.replace(setup.state, u=u), setup.chem_config)
    for name in _FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_l1_error_decreases_with_mesh():
    coarse = run_case(CaseConfig(n_cells=40, t_end=0.003))
    fine = run_case(CaseConfig(n_cells=160, t_end=0.003))
    for f in ("p", "u", "rho"):
        assert fine.errors[f] < coarse.errors[f]


def test_l1_error_zero_for_exact_state():
    setup = initialize_case(CaseConfig(n_cells=30))
    state = setup.state
    # replace with the exact averages the initialiser sampled from
    from stagflame.oracle import exact_cell_averages, exact_dual_averages
    cells = exact_cell_averages(setup.pattern, state.grid, 0.002)
    duals = exact_dual_averages(setup.pattern, state.grid, 0.002)
    gamma = state.mixture.gamma
    state = dataclasses.replace(
        state, rho=cells["rho"], p=cells["p"], u=np.asarray(duals["u"]),
        y_F=cells["y_F"], G=cells["G"],
        h_s=gamma * cells["p"] / ((gamma - 1.0) * cells["rho"]))
    errs = l1_error(state, setup.pattern, 0.002)
    assert errs["rho"] == 0.0
    assert errs["u"] == 0.0
    assert errs["p"] == 0.0
    assert errs["G"] == 0.0
    # T is reconstructed through the equation of state, which does not
    # commute with cell averaging in cells containing a front
    assert errs["T"] < 100.0


def test_burnt_zone_distance():
    setup = initialize_case(CaseConfig(n_cells=20, dt=1e-5, **_STATIC_FLAME))
    state = setup.state
    # everything fresh: the burnt zone is empty
    assert burnt_zone_asymptotic_distance(state) == 0.0
    # mark everything burnt while leaving the fresh composition in place:
    # the unburnt fuel and oxidiser and the missing product each count
    state = dataclasses.replace(state, G=np.zeros_like(state.G))
    want = 2.0 * (state.y_F[0] + state.y_O[0]) * (4.5 - 0.0)
    assert burnt_zone_asymptotic_distance(state) == pytest.approx(want, rel=1e-12)
    # G = 1/2 is fresh, as in asymptotic_composition: a product fraction
    # that the other three do not close counts nowhere
    state = dataclasses.replace(state, G=np.full_like(state.G, 0.5),
                                y_P=state.y_P + 0.1)
    assert burnt_zone_asymptotic_distance(state) == 0.0


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
    result = run_case(cfg)
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


def test_write_failure_is_a_config_error(tmp_path):
    # the CLI refuses a missing output directory before the work; a failure
    # only the write meets, such as a path that is a directory, is still
    # reported by write_csv
    message = f"^cannot write {re.escape(str(tmp_path))}: "
    with pytest.raises(ConfigError, match=message):
        write_csv(tmp_path, ["a"], [[1.0]])


def test_write_csv_keeps_17_significant_digits(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [[0.1, np.float64(0.1), 3]],
              header={"x": 0.1})
    assert path.read_text().splitlines() == [
        "# x = 0.10000000000000001", "a,b,c",
        "0.10000000000000001,0.10000000000000001,3"]


def test_sweep_rows_and_report(tmp_path):
    cfg = CaseConfig(t_end=0.0024, time_mode="explicit-limited")
    runs = run_sweep(cfg, meshes=[24, 48], schemes=["upwind", "muscl"])
    # one run per scheme and mesh, scheme by scheme, meshes in order
    assert [(r.config.limiter, r.config.n_cells) for r in runs] == [
        ("upwind", 24), ("upwind", 48), ("muscl", 24), ("muscl", 48)]
    up = runs[:2]
    assert up[0].state.grid.h == pytest.approx(4.5 / 24)
    assert all(len(r.diagnostics) == r.n_steps
               and r.energy_drift_rel == r.diagnostics[-1]["energy_drift_rel"]
               for r in runs)
    pairs, slope = observed_orders(up, "rho")
    assert len(pairs) == 1
    # two meshes: the least-squares line passes through both points
    assert slope == pytest.approx(pairs[0])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, sweep_report(up))
    rows = path.read_text().splitlines()
    head = rows[0].split(",")
    assert head[:5] == ["scheme", "n_cells", "h", "wall_time",
                        "asymptotic_distance"]
    assert "err_rho" in head and "order_u" in head
    assert len(rows) == 3
    assert rows[1].split(",")[0] == "upwind"
    # the second mesh row carries no order entry of its own
    assert rows[2].split(",")[-1] == ""
    text = sweep_text(sweep_report(up))
    assert "scheme = upwind" in text
    for key in ("gamma", "cfl", "epsilon_per_h", "dt_per_mesh"):
        assert f"\n  {key} = " in text
    assert "ls" in text and "burnt-zone distance" in text
    assert re.findall(r"scheme = (\w+)",
                      sweep_text(sweep_report(runs))) == ["upwind", "muscl"]


def test_sweep_csv_writes_each_consecutive_pair_order(tmp_path):
    # three meshes have two consecutive pairs: their orders fill the first
    # two rows, and the last mesh's order entries are empty
    runs = [SimpleNamespace(config=SimpleNamespace(n_cells=n),
                            state=SimpleNamespace(grid=SimpleNamespace(h=4.5 / n)),
                            wall_time=1.0,
                            errors=dict.fromkeys(harness.ERROR_FIELDS, 0.5))
            for n in (24, 48, 96)]
    orders = {f: ([1.25, 2.5], 2.0) for f in harness.ERROR_FIELDS}
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, [("upwind", runs, orders, [0.0, 0.0, 0.0])])
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    n = len(harness.ERROR_FIELDS)
    assert [row[-n:] for row in rows] == [["1.25"] * n, ["2.5"] * n, [""] * n]


def _power_law_runs(meshes, C, q):
    """Stand-ins for the runs of one scheme whose rho error is C h^q."""
    return [SimpleNamespace(state=SimpleNamespace(grid=SimpleNamespace(h=h)),
                            errors={"rho": C * h**q})
            for h in (4.5 / n for n in meshes)]


@pytest.mark.parametrize("q", [0.3, 0.73, 1.0, 2.0])
def test_observed_orders_recover_an_exact_power_law(q):
    runs = _power_law_runs([40, 100, 250, 600, 2000], 3.7, q)
    pairs, slope = observed_orders(runs, "rho")
    assert len(pairs) == 4
    assert np.all(np.abs(np.array(pairs) - q) <= 1e-12)
    assert abs(slope - q) <= 1e-12


def test_observed_orders_need_two_mesh_sizes_and_positive_errors():
    pairs, slope = observed_orders(_power_law_runs([250], 3.7, 0.5), "rho")
    assert pairs == [] and math.isnan(slope)
    runs = _power_law_runs([250, 500], 3.7, 0.5)
    runs[1].errors["rho"] = 0.0
    assert math.isnan(observed_orders(runs, "rho")[1])


def _counting_run_case(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_case", lambda *a, **k: calls.append(a))
    return calls


def test_sweep_checks_every_config_before_its_first_run(monkeypatch):
    calls = _counting_run_case(monkeypatch)
    cfg = CaseConfig(time_mode="explicit-limited")
    with pytest.raises(ConfigError, match=r"n_cells must lie in \[3, 1000000\], "
                                          r"got 2$"):
        run_sweep(cfg, meshes=[2000, 2], schemes=["upwind", "muscl"])
    # a fixed dt would not refine time with the mesh
    fixed = CaseConfig(time_mode="explicit-limited", dt=1e-5)
    with pytest.raises(ConfigError, match="needs a cfl target, not a fixed dt"):
        run_sweep(fixed, meshes=[20, 40], schemes=["upwind"])
    assert calls == []


@pytest.mark.parametrize("meshes,schemes,message", [
    ([20, 40, 20], ["upwind"], "mesh 20 is repeated"),
    ([20], ["upwind", "muscl", "upwind"], "scheme 'upwind' is repeated"),
])
def test_sweep_refuses_a_repeated_entry(monkeypatch, meshes, schemes,
                                        message):
    # a repeated scheme would report two blocks under one name, a repeated mesh
    # gives orders of 0/0
    calls = _counting_run_case(monkeypatch)
    cfg = CaseConfig(time_mode="explicit-limited")
    with pytest.raises(ConfigError, match=message):
        run_sweep(cfg, meshes, schemes)
    assert calls == []
