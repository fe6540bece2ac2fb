import numpy as np
import pytest

from stagflame.chemistry import (
    ChemStepConfig,
    advance_G,
    chemistry_step,
    flame_advection_field,
    reaction_rate,
)
from stagflame.errors import ConfigError, StepFailure
from stagflame.grid import build_uniform_grid
from stagflame.thermo import y_O_from_z
from helpers import benchmark_mixture, make_state

NU_F_W_F = 2.0 * 2.016e-3
NU_O_W_O = 1.0 * 31.998e-3


def inert_config(**kw):
    kw.setdefault("epsilon", 1.0)
    return ChemStepConfig(**kw)


def resting_state(n=20, G=1.0, y=(0.02, 0.2, 0.5, 0.28), dt=1e-3):
    mix = benchmark_mixture()
    grid = build_uniform_grid(n, 0.0, 1.0)
    comp = tuple(np.full(n, v) for v in y)
    h_s = np.full(n, 3.0e5)
    return make_state(grid, mix, dt, np.ones(n), np.zeros(n + 1), h_s,
                      comp, np.full(n, float(G)))


def advected_state(n=32, dt=2e-3, seed=1, time_sign=1.0):
    rng = np.random.default_rng(seed)
    mix = benchmark_mixture()
    grid = build_uniform_grid(n, 0.0, 1.0)
    u = np.zeros(n + 1)
    u[1:-1] = time_sign * rng.uniform(-0.4, 0.4, n - 1)
    rho = rng.uniform(0.8, 1.2, n)
    y_F = rng.uniform(0.0, 0.05, n)
    y_O = rng.uniform(0.1, 0.3, n)
    y_N = rng.uniform(0.3, 0.5, n)
    y_P = 1.0 - y_F - y_O - y_N
    G = rng.uniform(0.0, 1.0, n)
    h_s = np.full(n, 3.0e5)
    return make_state(grid, mix, dt, rho, u, h_s, (y_F, y_O, y_N, y_P), G)


# ---------------------------------------------------------------------------
# configuration


def test_exactly_one_epsilon_required():
    with pytest.raises(ConfigError):
        ChemStepConfig()
    with pytest.raises(ConfigError):
        ChemStepConfig(epsilon=1.0, epsilon_per_h=1.0)
    with pytest.raises(ConfigError):
        ChemStepConfig(epsilon=-1.0)


def test_epsilon_per_h_resolution():
    grid = build_uniform_grid(10, 0.0, 2.0)
    cfg = ChemStepConfig(epsilon_per_h=0.5)
    assert cfg.resolve_epsilon(grid) == pytest.approx(0.1)
    assert ChemStepConfig(epsilon=3.0).resolve_epsilon(grid) == 3.0


def test_unknown_time_mode_rejected():
    with pytest.raises(ConfigError):
        ChemStepConfig(epsilon=1.0, time_mode="midpoint")


# ---------------------------------------------------------------------------
# reaction rate


def test_reaction_rate_min_form():
    mix = benchmark_mixture()
    # equal molar availability of fuel and oxidant
    rate = reaction_rate(mix, NU_F_W_F, NU_O_W_O, 0.0)
    assert rate == pytest.approx(0.5)
    # oxidant-starved
    assert reaction_rate(mix, NU_F_W_F, 0.5 * NU_O_W_O, 0.0) == pytest.approx(0.25)
    # cutoff in the fresh zone
    assert reaction_rate(mix, NU_F_W_F, NU_O_W_O, 0.5) == 0.0
    assert reaction_rate(mix, NU_F_W_F, NU_O_W_O, 1.0) == 0.0
    # linear in the indicator below the cutoff
    assert reaction_rate(mix, NU_F_W_F, NU_O_W_O, 0.25) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# flame advection field


def test_flame_advection_signs_and_walls():
    grid = build_uniform_grid(8, 0.0, 1.0)
    cfg = inert_config(flame_speed_product=2.5)
    G_up = np.linspace(0.0, 1.0, 8)      # burnt on the left
    a = flame_advection_field(G_up, cfg, grid)
    assert a[0] == 0.0 and a[-1] == 0.0
    assert np.allclose(a[1:-1], 2.5)
    a = flame_advection_field(G_up[::-1], cfg, grid)
    assert np.allclose(a[1:-1], -2.5)


def test_flame_advection_flat_field_is_off():
    grid = build_uniform_grid(8, 0.0, 1.0)
    cfg = inert_config(flame_speed_product=2.5)
    assert np.all(flame_advection_field(np.full(8, 0.3), cfg, grid) == 0.0)


def test_flame_advection_threshold_kills_noise():
    grid = build_uniform_grid(40, 0.0, 1.0)
    cfg = inert_config(flame_speed_product=1.0, grad_threshold=1e-12)
    G = np.where(np.arange(40) < 20, 0.0, 1.0)
    G[5] += 1e-16  # round-off wiggle in the flat burnt zone
    a = flame_advection_field(G, cfg, grid)
    assert np.all(a[3:9] == 0.0)
    assert np.any(a != 0.0)  # the true front still advects


# ---------------------------------------------------------------------------
# indicator transport


def test_indicator_front_moves_at_flame_speed():
    # quiescent unit-density gas: the front must travel at the flame speed,
    # here oriented burnt-right so it moves left into the fresh gas
    n = 500
    mix = benchmark_mixture()
    grid = build_uniform_grid(n, 0.0, 1.0)
    x0 = 0.6
    G = np.where(grid.x_centers < x0, 1.0, 0.0)
    comp = (np.full(n, 0.02), np.full(n, 0.2), np.full(n, 0.5), np.full(n, 0.28))
    dt = 0.5 * grid.h
    state = make_state(grid, mix, dt, np.ones(n), np.zeros(n + 1),
                       np.full(n, 3.0e5), comp, G)
    cfg = inert_config(flame_speed_product=1.0)
    steps = 100
    for _ in range(steps):
        state.G = advance_G(state, dt, cfg)
    assert np.min(state.G) > -1e-12 and np.max(state.G) < 1.0 + 1e-12
    crossing = float(np.interp(0.5, state.G[::-1], grid.x_centers[::-1]))
    expected = x0 - 1.0 * steps * dt
    assert abs(crossing - expected) < 3 * grid.h


def test_flame_term_is_implicit_in_both_time_modes():
    from stagflame.transport import LimiterParams

    state = resting_state(n=40, G=1.0)
    state.G = np.where(state.grid.x_centers < 0.5, 0.0, 1.0)
    imp = inert_config(flame_speed_product=0.8)
    exp = inert_config(flame_speed_product=0.8, time_mode="explicit-limited",
                       limiter=LimiterParams(scheme="muscl"))
    G_imp = advance_G(state, state.dt, imp)
    G_exp = advance_G(state, state.dt, exp)
    # no mass flux here, so the two modes share the implicit flame solve
    assert np.allclose(G_imp, G_exp, atol=1e-14)
    assert not np.allclose(G_imp, state.G)


# ---------------------------------------------------------------------------
# full chemistry step


@pytest.mark.parametrize("mode,scheme", [
    ("implicit-upwind", None),
    ("explicit-limited", "upwind"),
    ("explicit-limited", "muscl"),
    ("explicit-limited", "antidiffusive"),
])
def test_uniform_composition_is_preserved(mode, scheme):
    from stagflame.transport import LimiterParams

    state = advected_state()
    y = (0.02, 0.2, 0.5, 0.28)
    for name, v in zip(("y_F", "y_O", "y_N", "y_P"), y):
        setattr(state, name, np.full(state.grid.n_cells, v))
    state.z = np.full(state.grid.n_cells, y[0] / NU_F_W_F - y[1] / NU_O_W_O)
    state.G = np.ones(state.grid.n_cells)  # reaction off
    limiter = LimiterParams(scheme=scheme) if scheme else None
    cfg = ChemStepConfig(epsilon=1e-3, time_mode=mode, limiter=limiter)
    res = chemistry_step(state, state.dt, cfg)
    for name, v in zip(("y_F", "y_O", "y_N", "y_P"), y):
        assert np.max(np.abs(getattr(res, name) - v)) < 1e-13
    assert np.max(np.abs(res.G - 1.0)) < 1e-13


def test_fractions_sum_to_one_and_stay_admissible():
    state = advected_state(seed=7)
    cfg = ChemStepConfig(epsilon=5e-3, flame_speed_product=0.5)
    res = chemistry_step(state, state.dt, cfg)
    total = res.y_F + res.y_O + res.y_N + res.y_P
    assert np.max(np.abs(total - 1.0)) < 1e-12
    for name in ("y_F", "y_O", "y_N", "y_P", "G"):
        v = getattr(res, name)
        assert np.min(v) > -1e-10 and np.max(v) < 1.0 + 1e-10
    # the oxidant is the z-closure of the fuel
    assert np.allclose(res.y_O, y_O_from_z(state.mixture, res.y_F, res.z),
                       atol=1e-15)


def test_implicit_fuel_decay_closed_form():
    # at rest, lean mixture (z < 0): y_F^{n+1} = y_F / (1 + dt (1/2 - G)/eps)
    eps = 2e-3
    dt = 1e-3
    state = resting_state(G=0.0, y=(0.01, 0.3, 0.5, 0.19), dt=dt)
    cfg = ChemStepConfig(epsilon=eps)
    res = chemistry_step(state, dt, cfg)
    want = 0.01 / (1.0 + 0.5 * dt / eps)
    assert np.allclose(res.y_F, want, rtol=1e-13)
    # oxidant follows stoichiometrically, neutral untouched
    d_yO = (0.01 - want) * NU_O_W_O / NU_F_W_F
    assert np.allclose(res.y_O, 0.3 - d_yO, rtol=1e-12)
    assert np.allclose(res.y_N, 0.5, rtol=1e-14)


def test_heat_release_matches_composition_change():
    # with only the product carrying formation enthalpy, the enthalpy-weighted
    # species sources must cancel the applied heat release exactly
    dt = 5e-4
    state = resting_state(n=12, G=0.2, y=(0.02, 0.2, 0.5, 0.28), dt=dt)
    cfg = ChemStepConfig(epsilon=1e-3)
    res = chemistry_step(state, dt, cfg)
    mix = state.mixture
    dh = mix.formation_enthalpies
    source = (
        dh[0] * (res.y_F - state.y_F)
        + dh[1] * (res.y_O - state.y_O)
        + dh[2] * (res.y_N - state.y_N)
        + dh[3] * (res.y_P - state.y_P)
    ) / dt  # rho = rho_prev = 1 here
    assert np.allclose(source, -res.omega_theta, rtol=1e-12)
    assert np.all(res.omega_theta >= 0.0)


def test_rich_mixture_burns_down_to_excess_fuel():
    # oxidant-limited cell: long relaxation leaves y_F -> nu_F W_F z
    dt = 1.0
    state = resting_state(n=8, G=0.0, y=(0.05, 0.1, 0.5, 0.35), dt=dt)
    cfg = ChemStepConfig(epsilon=1e-6)
    res = chemistry_step(state, dt, cfg)
    z = 0.05 / NU_F_W_F - 0.1 / NU_O_W_O
    assert z > 0.0
    assert np.allclose(res.y_F, NU_F_W_F * z, rtol=1e-5)
    assert np.all(res.y_O < 1e-6)


def test_gates_raise_on_inadmissible_fractions():
    state = resting_state()
    state.y_F = state.y_F.copy()
    state.y_F[3] = -1e-8  # beyond the -1e-10 gate
    with pytest.raises(StepFailure):
        chemistry_step(state, state.dt, ChemStepConfig(epsilon=1.0))


@pytest.mark.parametrize("mode,field", [
    ("implicit-upwind", "y_F"),
    ("explicit-limited", "y_N"),
])
def test_gates_raise_on_nan_fractions(mode, field):
    from stagflame.transport import LimiterParams

    cfg = ChemStepConfig(epsilon=1.0, time_mode=mode,
                         limiter=LimiterParams(scheme="upwind"))
    for value in (np.nan, np.inf, -np.inf):
        state = advected_state()
        setattr(state, field, getattr(state, field).copy())
        getattr(state, field)[3] = value
        # inf - inf in an explicit flux difference warns before the gate
        with np.errstate(invalid="ignore"):
            with pytest.raises(StepFailure, match=rf"^{field} is not finite in cell"):
                chemistry_step(state, state.dt, cfg)


def test_face_values_reported_for_energy_audit():
    state = advected_state(seed=3)
    cfg = ChemStepConfig(epsilon=1e-3)
    res = chemistry_step(state, state.dt, cfg)
    faces = res.fluxes.face_values
    assert set(faces) == {"z", "y_F", "y_O", "y_N", "y_P"}
    mix = state.mixture
    # closure species get faces derived from the transported ones
    assert np.allclose(faces["y_O"],
                       y_O_from_z(mix, faces["y_F"], faces["z"]), atol=1e-15)
    assert np.allclose(faces["y_P"],
                       1.0 - faces["y_F"] - faces["y_O"] - faces["y_N"],
                       atol=1e-15)
    assert res.fluxes.F is state.flux
