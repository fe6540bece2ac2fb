from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from stagflame import chemistry
from stagflame.chemistry import (
    ChemStepConfig,
    chemistry_step,
    flame_advection_field,
    species_faces,
)
from stagflame.errors import ConfigError, StepFailure
from stagflame.grid import build_uniform_grid
from stagflame.harness import CaseConfig
from stagflame.thermo import y_O_from_z, z_from_fractions
from stagflame.transport import SCHEMES, face_stencil, face_values
from helpers import benchmark_mixture, make_state

NU_F_W_F = 2.0 * 2.016e-3
NU_O_W_O = 1.0 * 31.998e-3


def inert_config(**kw):
    kw.setdefault("epsilon", 1.0)
    return ChemStepConfig(**kw)


def resting_state(n=20, G=1.0, y=(0.02, 0.2, 0.5, 0.28), dt=1e-3):
    mix = benchmark_mixture()
    grid = build_uniform_grid(n, 1.0)
    comp = tuple(np.full(n, v) for v in y)
    h_s = np.full(n, 3.0e5)
    return make_state(grid, mix, dt, np.ones(n), np.zeros(n + 1), h_s,
                      comp, np.full(n, float(G)))


def advected_state(n=32, dt=2e-3, seed=1, time_sign=1.0):
    rng = np.random.default_rng(seed)
    mix = benchmark_mixture()
    grid = build_uniform_grid(n, 1.0)
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


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
def test_epsilon_must_be_positive(epsilon):
    with pytest.raises(ConfigError, match="epsilon must be positive"):
        ChemStepConfig(epsilon=epsilon)
    assert ChemStepConfig(epsilon=3.0).epsilon == 3.0


def test_flame_speed_product_must_be_non_negative():
    with pytest.raises(ConfigError, match="flame_speed_product must be "
                                          "non-negative"):
        ChemStepConfig(epsilon=1.0, flame_speed_product=-1.0)
    assert ChemStepConfig(epsilon=1.0).flame_speed_product == 0.0


def test_epsilon_per_h_resolution():
    grid = build_uniform_grid(10, 2.0)
    cfg = CaseConfig(epsilon_per_h=0.5).chem_config(1.0, grid.h)
    assert cfg.epsilon == pytest.approx(0.1)


def test_case_config_maps_time_mode_onto_the_limiter():
    assert CaseConfig().chem_config(1.0, 0.1).limiter is None
    explicit = CaseConfig(time_mode="explicit-limited", limiter="muscl")
    assert explicit.chem_config(1.0, 0.1).limiter == "muscl"


def test_limiter_selects_the_transport():
    # the limiter is the one scheme value: None convects implicitly with
    # upwind faces, a scheme name explicitly with its own faces (which
    # test_species_faces_are_the_convected_faces checks); the result
    # reports the limiter the step ran
    state = advected_state(seed=5, dt=1e-3)
    assert state.cfl <= 1.0
    assert chemistry_step(state, ChemStepConfig(epsilon=1e-3)).limiter is None
    res = chemistry_step(state, ChemStepConfig(epsilon=1e-3, limiter="muscl"))
    assert res.limiter == "muscl"
    # a name outside SCHEMES is refused, and the message lists them
    with pytest.raises(ConfigError) as refused:
        ChemStepConfig(epsilon=1e-3, limiter="parabolic")
    assert str(refused.value) == (
        "limiter must be None or one of ('upwind', 'muscl', 'antidiffusive'), "
        "got 'parabolic'")


# ---------------------------------------------------------------------------
# flame advection field


def test_flame_advection_signs_and_walls():
    G_up = np.linspace(0.0, 1.0, 8)      # burnt on the left
    a = flame_advection_field(G_up, 2.5)
    assert a[0] == 0.0 and a[-1] == 0.0
    assert np.allclose(a[1:-1], 2.5)
    a = flame_advection_field(G_up[::-1], 2.5)
    assert np.allclose(a[1:-1], -2.5)


def test_flame_advection_flat_field_is_off():
    assert np.all(flame_advection_field(np.full(8, 0.3), 2.5) == 0.0)


def test_flame_advection_threshold_kills_noise():
    G = np.where(np.arange(40) < 20, 0.0, 1.0)
    G[5] += 1e-16  # round-off wiggle in the flat burnt zone
    a = flame_advection_field(G, 1.0)
    assert np.all(a[3:9] == 0.0)
    assert np.any(a != 0.0)  # the true front still advects


# ---------------------------------------------------------------------------
# indicator transport


def test_indicator_front_moves_at_flame_speed():
    # quiescent unit-density gas: the front must travel at the flame speed,
    # here oriented burnt-right so it moves left into the fresh gas
    n = 500
    mix = benchmark_mixture()
    grid = build_uniform_grid(n, 1.0)
    x0 = 0.6
    G = np.where(grid.x_centers < x0, 1.0, 0.0)
    comp = (np.full(n, 0.02), np.full(n, 0.2), np.full(n, 0.5), np.full(n, 0.28))
    dt = 0.5 * grid.h
    state = make_state(grid, mix, dt, np.ones(n), np.zeros(n + 1),
                       np.full(n, 3.0e5), comp, G)
    cfg = inert_config(flame_speed_product=1.0)
    steps = 100
    for _ in range(steps):
        state = replace(state, G=chemistry_step(state, cfg).G)
    assert np.min(state.G) > -1e-12 and np.max(state.G) < 1.0 + 1e-12
    crossing = float(np.interp(0.5, state.G[::-1], grid.x_centers[::-1]))
    expected = x0 - 1.0 * steps * dt
    assert abs(crossing - expected) < 3 * grid.h


def test_flame_term_is_implicit_in_both_time_modes():
    state = resting_state(n=40, G=1.0)
    state = replace(state, G=np.where(state.grid.x_centers < 0.5, 0.0, 1.0))
    imp = inert_config(flame_speed_product=0.8)
    exp = inert_config(flame_speed_product=0.8, limiter="muscl")
    G_imp = chemistry_step(state, imp).G
    G_exp = chemistry_step(state, exp).G
    # no mass flux here, so the two modes share the implicit flame solve
    assert np.allclose(G_imp, G_exp, atol=1e-14)
    assert not np.allclose(G_imp, state.G)


def full_band_explicit_solve(mass_prev, mass, F, y, y_face,
                             reaction_diag=None, reaction_rhs=None,
                             flame=None):
    """An explicit G or y_F update as a zero-filled (3, n) band through
    ``gtsv`` over every row, whatever its implicit terms couple."""
    rhs = mass_prev * y
    if reaction_rhs is not None:
        rhs += reaction_rhs
    Fy = F * y_face
    rhs -= Fy[1:] - Fy[:-1]
    ab = np.zeros((3, y.shape[0]))
    ab[1] = mass
    if reaction_diag is not None:
        ab[1] += reaction_diag
    if flame is not None:
        a_int = flame[1:-1]
        apos = np.maximum(a_int, 0.0)
        aneg = np.negative(a_int)
        np.maximum(aneg, 0.0, out=aneg)
        ab[1, 1:] += apos
        ab[2, :-1] -= apos
        ab[1, :-1] += aneg
        ab[0, 1:] -= aneg
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


@st.composite
def explicit_front_cases(draw):
    """A state and explicit config whose indicator G holds no front, one in
    the middle, one at the first or last interior face, or two apart."""
    n = draw(st.integers(min_value=4, max_value=24))
    kind = draw(st.sampled_from(["none", "middle", "first", "last", "two"]))

    def cells(lo, hi, size=n):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size,
                                      max_size=size)))

    lo, hi = draw(st.floats(0.0, 0.4)), draw(st.floats(0.6, 1.0))
    faces = np.arange(n)  # cell k lies right of face k
    if kind == "none":
        G = np.full(n, draw(st.floats(0.0, 1.0)))
    elif kind == "two":
        j1 = draw(st.integers(1, n - 3))
        j2 = draw(st.integers(j1 + 2, n - 1))
        G = np.where((faces >= j1) & (faces < j2), hi, lo)
    else:
        j = {"first": 1, "last": n - 1}.get(kind) or draw(
            st.integers(2, n - 2))
        G = np.where(faces >= j, hi, lo)
    if draw(st.booleans()):
        G = G[::-1].copy()
    mix = benchmark_mixture()
    grid = build_uniform_grid(n, 1.0)
    u = np.zeros(n + 1)
    u[1:-1] = cells(-0.4, 0.4, n - 1)
    u[1:-1][cells(0.0, 1.0, n - 1) < 0.2] = 0.0
    y_F = cells(0.0, 0.05)
    y_O = cells(0.1, 0.3)
    y_N = cells(0.3, 0.5)
    state = make_state(grid, mix, 2e-3, cells(0.8, 1.2), u,
                       np.full(n, 3.0e5), (y_F, y_O, y_N, 1.0 - y_F - y_O - y_N),
                       G)
    # a flame CFL a dt / (h rho) from 0.001 to 50: past 1, gtsv swaps rows
    cfg = ChemStepConfig(
        epsilon=draw(st.sampled_from([1e-3, 1.0])),
        flame_speed_product=draw(st.floats(0.02, 1000.0)),
        limiter=draw(st.sampled_from(SCHEMES)))
    return state, cfg


def bits(x):
    return x.view(np.int64).tolist()


@settings(max_examples=150, deadline=None)
@given(explicit_front_cases())
def test_explicit_solves_are_bitwise_the_full_band(case):
    # G's band spans only the flame brush and y_F's is a diagonal; both must
    # give bit for bit what gtsv gives on the full (3, n) band
    state, cfg = case
    grid, mix, dt = state.grid, state.mixture, state.dt
    res = chemistry_step(state, cfg)
    hdt = grid.cell_volumes / dt
    mass_prev = hdt * state.rho_prev
    mass = hdt * state.rho
    stencil = face_stencil(state.flux, cfg.limiter, state.rho, dt, grid)
    a = flame_advection_field(state.G, cfg.flame_speed_product)
    G_next = full_band_explicit_solve(
        mass_prev, mass, state.flux, state.G, face_values(state.G, stencil),
        flame=a)
    assert bits(res.G) == bits(G_next)
    burn = grid.cell_volumes / cfg.epsilon
    burn *= np.maximum(np.subtract(0.5, G_next), 0.0)
    reaction_rhs = burn * mix.nu_F
    reaction_rhs *= mix.W_F
    reaction_rhs *= np.maximum(res.z, 0.0)
    y_F_next = full_band_explicit_solve(
        mass_prev, mass, state.flux, state.y_F,
        face_values(state.y_F, stencil), reaction_diag=burn,
        reaction_rhs=reaction_rhs)
    assert bits(res.y_F) == bits(y_F_next)


# ---------------------------------------------------------------------------
# full chemistry step


@pytest.mark.parametrize("scheme", [None, "upwind", "muscl", "antidiffusive"],
                         ids=["implicit-upwind-None", "explicit-limited-upwind",
                              "explicit-limited-muscl",
                              "explicit-limited-antidiffusive"])
def test_uniform_composition_is_preserved(scheme):
    state = advected_state()
    n = state.grid.n_cells
    y = (0.02, 0.2, 0.5, 0.28)
    state = replace(
        state, **{name: np.full(n, v)
                  for name, v in zip(("y_F", "y_O", "y_N", "y_P"), y)},
        z=np.full(n, y[0] / NU_F_W_F - y[1] / NU_O_W_O),
        G=np.ones(n))  # reaction off
    cfg = ChemStepConfig(epsilon=1e-3, limiter=scheme)
    res = chemistry_step(state, cfg)
    for name, v in zip(("y_F", "y_O", "y_N", "y_P"), y):
        assert np.max(np.abs(getattr(res, name) - v)) < 1e-13
    assert np.max(np.abs(res.G - 1.0)) < 1e-13


def test_fractions_sum_to_one_and_stay_admissible():
    state = advected_state(seed=7)
    cfg = ChemStepConfig(epsilon=5e-3, flame_speed_product=0.5)
    res = chemistry_step(state, cfg)
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
    res = chemistry_step(state, cfg)
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
    res = chemistry_step(state, cfg)
    mix = state.mixture
    source = (
        mix.dh_F * (res.y_F - state.y_F)
        + mix.dh_O * (res.y_O - state.y_O)
        + mix.dh_N * (res.y_N - state.y_N)
        + mix.dh_P * (res.y_P - state.y_P)
    ) / dt  # rho = rho_prev = 1 here
    assert np.allclose(source, -res.omega_theta, rtol=1e-12)
    assert np.all(res.omega_theta >= 0.0)


def test_rich_mixture_burns_down_to_excess_fuel():
    # oxidant-limited cell: long relaxation leaves y_F -> nu_F W_F z
    dt = 1.0
    state = resting_state(n=8, G=0.0, y=(0.05, 0.1, 0.5, 0.35), dt=dt)
    cfg = ChemStepConfig(epsilon=1e-6)
    res = chemistry_step(state, cfg)
    z = 0.05 / NU_F_W_F - 0.1 / NU_O_W_O
    assert z > 0.0
    assert np.allclose(res.y_F, NU_F_W_F * z, rtol=1e-5)
    assert np.all(res.y_O < 1e-6)


def test_gates_raise_on_inadmissible_fractions():
    state = resting_state()
    y_F = state.y_F.copy()
    y_F[3] = -1e-8  # beyond the -1e-10 gate
    state = replace(state, y_F=y_F)
    with pytest.raises(StepFailure):
        chemistry_step(state, ChemStepConfig(epsilon=1.0))


@pytest.mark.parametrize("scheme,field", [(None, "y_F"), ("upwind", "y_N")],
                         ids=["implicit-upwind-y_F", "explicit-limited-y_N"])
def test_gates_raise_on_nan_fractions(scheme, field):
    cfg = ChemStepConfig(epsilon=1.0, limiter=scheme)
    for value in (np.nan, np.inf, -np.inf):
        state = advected_state()
        bad = getattr(state, field).copy()
        bad[3] = value
        state = replace(state, **{field: bad})
        with pytest.raises(StepFailure, match=rf"^{field} is not finite in cell"):
            chemistry_step(state, cfg)


def test_explicit_step_refuses_a_material_cfl_above_one():
    # the limited face values keep their maximum principle only up to CFL 1
    state = advected_state(dt=0.1)
    assert state.cfl > 1.0
    cfg = ChemStepConfig(epsilon=1e-3, limiter="antidiffusive")
    with pytest.raises(StepFailure,
                       match=r"^material CFL \d+\.\d{4} exceeds 1 in "
                             r"explicit-limited mode \(dt 1\.000000e-01\)"):
        chemistry_step(state, cfg)
    # implicit upwind transport has no such bound
    chemistry_step(state, ChemStepConfig(epsilon=1e-3))


def _upwind(y, F):
    """Upwind face values of ``y`` under the fluxes ``F``: the left cell
    where F >= 0, the right one elsewhere, the adjacent cell at the walls."""
    inner = np.where(F[1:-1] >= 0.0, y[:-1], y[1:])
    return np.concatenate([y[:1], inner, y[-1:]])


def test_face_values_reported_for_energy_audit():
    state = advected_state(seed=3)
    cfg = ChemStepConfig(epsilon=1e-3)
    res = chemistry_step(state, cfg)
    faces = species_faces(state, res)
    assert set(faces) == {"z", "y_F", "y_O", "y_N", "y_P"}
    mix = state.mixture
    # implicit faces: upwind values of the new fractions under the step's
    # mass fluxes; the closure species get faces derived from the
    # transported ones
    for name in ("z", "y_N", "y_F"):
        assert (faces[name].tobytes()
                == _upwind(getattr(res, name), state.flux).tobytes())
    assert np.array_equal(faces["y_O"],
                          y_O_from_z(mix, faces["y_F"], faces["z"]))
    assert np.array_equal(faces["y_P"],
                          1.0 - faces["y_F"] - faces["y_O"] - faces["y_N"])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_species_faces_are_the_convected_faces(monkeypatch, scheme):
    # the audit rebuilds, bit for bit, the faces an explicit step convected:
    # face_values returns the G, y_O, y_N and y_F faces in that order, and
    # z's are y_F's and y_O's linear combination
    state = advected_state(seed=5, dt=1e-3)
    assert state.cfl <= 1.0
    returned = []

    def recording(y, stencil):
        returned.append(face_values(y, stencil))
        return returned[-1]

    monkeypatch.setattr(chemistry, "face_values", recording)
    res = chemistry_step(state, ChemStepConfig(epsilon=1e-3, limiter=scheme))
    monkeypatch.undo()
    _, y_O, y_N, y_F = returned
    faces = species_faces(state, res)
    want = {"z": z_from_fractions(state.mixture, y_F, y_O), "y_F": y_F,
            "y_O": y_O, "y_N": y_N, "y_P": 1.0 - y_F - y_O - y_N}
    assert set(faces) == set(want)
    for name, values in want.items():
        assert faces[name].tobytes() == values.tobytes(), name
    # upwind faces at a material CFL below 1 differ from the other schemes'
    if scheme != "upwind":
        assert y_O.tobytes() != _upwind(state.y_O, state.flux).tobytes()
